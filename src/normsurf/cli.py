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
3 = resource cap exceeded (UNKNOWN verdict). Default resource caps can
be set with NORMSURF_MAX_CANDIDATES and NORMSURF_TIME_BUDGET.

`build_config` returns the argparse namespace itself, with the command
name, the output format and the two caps resolved and checked; each
command reads its arguments straight off that namespace.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence, TextIO

from . import curves2d, fixtures
from .detect import UNKNOWN, Verdict, split_link_check, unknot_via_pushoff
from .errors import HomologyError, NormSurfError, ResourceLimitExceeded
from .hilbert import DEFAULT_MAX_CANDIDATES, enumerate_fundamental
from .homology import cycle_chain, h1
from .matching import restrict_to_link, variable_name
from .surface import analyze
from .triangulation import (
    Gluing,
    Triangulation,
    parse_cycle,
    parse_link,
    parse_link_component,
    parse_triangulation,
    serialize_cycle,
    serialize_link,
    serialize_link_component,
    serialize_triangulation,
    validate,
)


def _env_caps() -> tuple[int, Optional[float]]:
    max_candidates = DEFAULT_MAX_CANDIDATES
    time_budget = None
    raw = os.environ.get("NORMSURF_MAX_CANDIDATES")
    if raw:
        try:
            max_candidates = int(raw)
        except ValueError:
            raise NormSurfError(
                f"NORMSURF_MAX_CANDIDATES must be an integer, got {raw!r}")
    raw = os.environ.get("NORMSURF_TIME_BUDGET")
    if raw:
        try:
            time_budget = float(raw)
        except ValueError:
            raise NormSurfError(
                f"NORMSURF_TIME_BUDGET must be a number, got {raw!r}")
    return max_candidates, time_budget


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normsurf",
        description="normal surfaces on triangulated 3-manifolds")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tsv=False):
        p.add_argument("--json", action="store_true",
                       help="machine-readable, byte-deterministic output")
        if tsv:
            p.add_argument("--tsv", action="store_true",
                           help="one vector per row, 7 columns per tetrahedron")
        p.add_argument("--max-candidates", type=int, default=None,
                       help="enumeration candidate cap")
        p.add_argument("--time-budget", type=float, default=None,
                       help="enumeration wall-clock cap in seconds")

    p = sub.add_parser("validate", help="check a triangulation file")
    p.add_argument("triangulation")
    common(p)

    p = sub.add_parser("skeleton", help="vertex/edge/face classes")
    p.add_argument("triangulation")
    common(p)

    p = sub.add_parser("fundamental",
                       help="enumerate fundamental normal surfaces")
    p.add_argument("triangulation")
    p.add_argument("--link", help="restrict surfaces away from this link")
    p.add_argument("--include-inadmissible", action="store_true",
                   help="list the full Hilbert basis, not only admissible "
                        "vectors; it can exceed any budget, as on the "
                        "10-tet complement")
    common(p, tsv=True)

    p = sub.add_parser("split-check", help="decide whether a link is split")
    p.add_argument("triangulation")
    p.add_argument("--link", required=True)
    common(p)

    p = sub.add_parser("unknot", help="decide knottedness via a 0-pushoff")
    p.add_argument("triangulation")
    p.add_argument("--knot", required=True,
                   help="component file (edgeCycle or idealVertex)")
    p.add_argument("--pushoff", required=True,
                   help="component file for the parallel copy")
    p.add_argument("--waive-pushoff-check", action="store_true",
                   help="skip the null-homology verification of the pushoff")
    p.add_argument("--homology-tri",
                   help="verify the pushoff on this triangulation instead "
                        "(e.g. the bounded complement)")
    common(p)

    p = sub.add_parser("homology", help="integer first homology")
    p.add_argument("triangulation")
    p.add_argument("--cycle", help="edge-cycle file; report its class")
    p.add_argument("--lenient", action="store_true",
                   help="compute even when ideal vertex classes distort H1")
    common(p)

    p2d = sub.add_parser("curve2d", help="normal curves on surfaces")
    sub2d = p2d.add_subparsers(dest="subcommand", required=True)
    p = sub2d.add_parser("connect",
                         help="is there a normal path between two boundary points?")
    p.add_argument("surface")
    p.add_argument("--from", dest="edge_from", required=True,
                   metavar="TRI:U,V", help='boundary edge, e.g. "A:0,1"')
    p.add_argument("--to", dest="edge_to", required=True, metavar="TRI:U,V")
    common(p)

    p = sub.add_parser("emit-fixtures", help="write the bundled fixture files")
    p.add_argument("directory")
    common(p)
    return parser


def build_config(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    """Parse arguments (argparse errors exit 2). On the namespace,
    command names the subcommand ("curve2d-connect" for curve2d
    connect), output is "human", "json" or "tsv", and max_candidates
    and time_budget fall back to the environment, then the defaults."""
    args = _build_parser().parse_args(argv)
    env_max, env_time = _env_caps()
    if args.command == "curve2d":
        args.command = f"curve2d-{args.subcommand}"
    args.output = "json" if args.json else "human"
    if getattr(args, "tsv", False):
        if args.json:
            raise NormSurfError("--json and --tsv are mutually exclusive")
        args.output = "tsv"
    if args.max_candidates is None:
        args.max_candidates = env_max
    if args.max_candidates <= 0:
        raise NormSurfError("max-candidates must be positive")
    if args.time_budget is None:
        args.time_budget = env_time
    # "not > 0" also refuses NaN, which no deadline would ever pass
    if args.time_budget is not None and not args.time_budget > 0:
        raise NormSurfError("time-budget must be positive")
    return args


# -- shared formatting -------------------------------------------------------


def _emit_json(doc, out: TextIO) -> None:
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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


# -- commands ----------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace, out: TextIO) -> int:
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
    if args.output == "json":
        _emit_json(doc, out)
    elif problems:
        for p in problems:
            print(f"INVALID: {p}", file=out)
    else:
        shape = "connected" if doc["connected"] else "disconnected"
        print(f"valid: {tri.size} tetrahedra, {boundary} boundary "
              f"faces, {shape}", file=out)
    return 0 if not problems else 2


def _cmd_skeleton(args: argparse.Namespace, out: TextIO) -> int:
    tri = _load_triangulation(args.triangulation)
    skel = tri.skeleton
    faces = len(tri.interior_pairs()) + len(tri.boundary_facets())
    euler = (len(skel.vertex_classes) - len(skel.edge_classes)
             + faces - tri.size)
    if args.output == "json":
        _emit_json({
            "tetrahedra": tri.size,
            "faceClasses": faces,
            "eulerCharacteristic": euler,
            "vertexClasses": [
                {"degree": vc.degree, "boundary": vc.boundary,
                 "members": [f"{tri.name(t)}({x})" for t, x in vc.members]}
                for vc in skel.vertex_classes],
            "edgeClasses": [
                {"degree": ec.degree, "boundary": ec.boundary,
                 "inverted": ec.inverted,
                 "members": [tri.format_spot(t, e) for t, e in ec.members]}
                for ec in skel.edge_classes],
        }, out)
        return 0
    print(f"{tri.size} tetrahedra, {len(skel.vertex_classes)} vertex "
          f"classes, {len(skel.edge_classes)} edge classes, "
          f"{faces} face classes; euler characteristic {euler}", file=out)
    for vc in skel.vertex_classes:
        kind = "boundary" if vc.boundary else "interior"
        print(f"vertex class {vc.index}: degree {vc.degree}, {kind}", file=out)
    for ec in skel.edge_classes:
        kind = "boundary" if ec.boundary else "interior"
        flags = ", inverted" if ec.inverted else ""
        members = " ".join(tri.format_spot(t, e) for t, e in ec.members)
        print(f"edge class {ec.index}: degree {ec.degree}, {kind}{flags}: "
              f"{members}", file=out)
    return 0


def _cmd_fundamental(args: argparse.Namespace, out: TextIO) -> int:
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
    # Inadmissible vectors have no surface reading, so skip analysis then.
    reports = {}
    if not args.include_inadmissible:
        reports = {v: analyze(tri, v) for v in fs.vectors}
    if args.output == "json":
        _emit_json({
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
        }, out)
        return 0
    if args.output == "tsv":
        header = [variable_name(tri, i)
                  for i in range(system.variable_count)]
        print("\t".join(header), file=out)
        for v in fs.vectors:
            print("\t".join(map(str, v)), file=out)
        return 0
    kind = "Hilbert basis vectors" if args.include_inadmissible \
        else "admissible fundamental surfaces"
    print(f"{len(system.equations)} equations, {system.variable_count} "
          f"variables, {len(system.forced_zeros)} forced zeros", file=out)
    print(f"{len(fs.vectors)} {kind} "
          f"({fs.candidates_examined} candidates, {fs.elapsed:.2f}s)", file=out)
    for n, v in enumerate(fs.vectors, 1):
        line = f"#{n} {_blocks_line(tri, v)}"
        if v in reports:
            r = reports[v]
            shape = "closed" if r.closed else f"{r.boundary_circles} circles"
            line += (f"  chi={r.euler} components={r.components} {shape}")
        print(line, file=out)
    return 0


def _report_verdict(args: argparse.Namespace, out: TextIO, tri: Triangulation,
                    verdict: Verdict, witness_label: str) -> int:
    if args.output == "json":
        _emit_json({
            "answer": verdict.answer,
            "searchedCount": verdict.searched_count,
            "witness": _witness_doc(tri, verdict.witness),
            "diagnostics": verdict.diagnostics,
        }, out)
    else:
        print(f"verdict: {verdict.answer}", file=out)
        print(f"searched: {verdict.searched_count} admissible fundamental "
              f"surfaces", file=out)
        if verdict.witness is not None:
            print(f"{witness_label}: {_blocks_line(tri, verdict.witness)}",
                  file=out)
        if verdict.diagnostics:
            print(f"diagnostics: {verdict.diagnostics}", file=out)
    return 3 if verdict.answer == UNKNOWN else 0


def _cmd_split_check(args: argparse.Namespace, out: TextIO) -> int:
    tri = _load_triangulation(args.triangulation)
    link = parse_link(Path(args.link).read_text())
    verdict = split_link_check(
        tri, link, max_candidates=args.max_candidates,
        time_budget=args.time_budget)
    return _report_verdict(args, out, tri, verdict, "witness")


def _cmd_unknot(args: argparse.Namespace, out: TextIO) -> int:
    tri = _load_triangulation(args.triangulation)
    knot = parse_link_component(Path(args.knot).read_text())
    pushoff = parse_link_component(Path(args.pushoff).read_text())
    homology_tri = None
    if args.homology_tri:
        homology_tri = _load_triangulation(args.homology_tri)
    verdict = unknot_via_pushoff(
        tri, knot, pushoff,
        waive_pushoff_check=args.waive_pushoff_check,
        homology_tri=homology_tri,
        max_candidates=args.max_candidates,
        time_budget=args.time_budget)
    return _report_verdict(args, out, tri, verdict, "splitting sphere")


def _cmd_homology(args: argparse.Namespace, out: TextIO) -> int:
    tri = _load_triangulation(args.triangulation)
    try:
        summary = h1(tri, strict=not args.lenient)
    except HomologyError as exc:  # the refusal names h1's own parameter
        raise NormSurfError(
            str(exc).replace("strict=False", "--lenient")) from None
    doc: dict = {
        "freeRank": summary.free_rank,
        "torsion": list(summary.torsion),
        "nonmaterialVertexClasses":
            list(summary.complex.nonmaterial_vertex_classes),
    }
    lines = [f"H1 = {_h1_text(summary)}"]
    if summary.complex.nonmaterial_vertex_classes:
        lines.append(
            "warning: non-material vertex classes "
            f"{list(summary.complex.nonmaterial_vertex_classes)} distort H1")
    if args.cycle:
        cycle = parse_cycle(Path(args.cycle).read_text())
        chain = cycle_chain(tri, cycle)
        cls = summary.class_of(chain)
        doc["cycle"] = {
            "chain": {str(k): c for k, c in sorted(chain.items())},
            "classValues": list(cls.values),
            "classOrders": list(cls.orders),
            "null": cls.is_null,
        }
        if cls.is_null:
            bounding = summary.bounding(chain)
            doc["cycle"]["boundsVisibly"] = bounding is not None
            lines.append("cycle class: 0 (null-homologous; valid 0-pushoff)")
        else:
            lines.append(
                f"cycle class: {tuple(cls.values)} with orders "
                f"{tuple(cls.orders)} - NOT null-homologous, so not a "
                f"0-pushoff")
    if args.output == "json":
        _emit_json(doc, out)
    else:
        for line in lines:
            print(line, file=out)
    return 0


def _cmd_curve2d_connect(args: argparse.Namespace, out: TextIO) -> int:
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
    if args.output == "json":
        _emit_json({"connected": witness is not None,
                    "witness": _witness_doc(surf, witness)}, out)
    elif witness is None:
        print("not connected: the boundary points lie on different "
              "components", file=out)
    elif not any(witness):
        print("connected along the shared boundary edge (empty curve)",
              file=out)
    else:
        print(f"connected: {_blocks_line(surf, witness)}", file=out)
    return 0


FIXTURE_FILES = (
    ("fig8_10tet.json", lambda: serialize_triangulation(fixtures.fig8_complement())),
    ("fig8_12tet.json", lambda: serialize_triangulation(fixtures.fig8_closed())),
    ("fig8_link.json", lambda: serialize_link(fixtures.fig8_link())),
    ("fig8_knot.json", lambda: serialize_link_component(
        fixtures.fig8_link().components[0])),
    ("fig8_pushoff.json", lambda: serialize_cycle(fixtures.fig8_pushoff_cycle())),
    ("fig8_longitude.json", lambda: serialize_cycle(fixtures.fig8_longitude_cycle())),
    ("single_tet.json", lambda: serialize_triangulation(fixtures.single_tet())),
    ("solid_torus.json", lambda: serialize_triangulation(fixtures.solid_torus())),
    ("square_surface.json", lambda: curves2d.serialize_surface(
        fixtures.square_surface())),
    ("disconnected_pair.json", lambda: serialize_triangulation(
        fixtures.disconnected_pair())),
    ("disconnected_link.json", lambda: serialize_link(
        fixtures.disconnected_link())),
)


def _cmd_emit_fixtures(args: argparse.Namespace, out: TextIO) -> int:
    directory = Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, render in FIXTURE_FILES:
        path = directory / name
        path.write_text(render())
        written.append(str(path))
    if args.output == "json":
        _emit_json({"written": written}, out)
    else:
        for path in written:
            print(f"wrote {path}", file=out)
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "skeleton": _cmd_skeleton,
    "fundamental": _cmd_fundamental,
    "split-check": _cmd_split_check,
    "unknot": _cmd_unknot,
    "homology": _cmd_homology,
    "curve2d-connect": _cmd_curve2d_connect,
    "emit-fixtures": _cmd_emit_fixtures,
}


def run(config: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    """Execute one command; report errors on err and return the exit code."""
    try:
        return _COMMANDS[config.command](config, out)
    except ResourceLimitExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=err)
        return 3
    except (NormSurfError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=err)
        return 2


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
