"""The four benchmark workloads.

Each workload has three parts, all driven by files that `generate`
writes from the seed:

- `generate(rng, workdir)` runs once in the parent process, before any
  timing. It writes the input files and returns a JSON-able pool of
  entries, each naming its files and the answer expected for it.
- `load(entry)` parses one entry's files into program objects.
- `op(state)` is the timed operation; `check(state, result)` verifies
  its answer outside the timed region and returns an error message, or
  None when the answer is right.

Generation imports the generators and fixtures inside `generate`, so
the set-up child (setup_child.py), which times everything after
`import normsurf`, does not pay for them.

Calls into the program go through module attributes (`normsurf.cli.run`,
`ns.enumerate_fundamental`), never through names bound here at import,
so the tracer's rebinding of those attributes sees every call.

Vector coordinates follow the package's per-tetrahedron blocks
[t0, t1, t2, t3, q01, q02, q03], where q0x separates {0, x} from the
other two vertices.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from pathlib import Path
from typing import Optional

import normsurf as ns
import normsurf.cli

BLOCK = 7
_QUAD_PAIRS = ((0, 1), (0, 2), (0, 3))  # offsets 4, 5, 6

# Expected answers, fixed here rather than read from the program.
KNOT_ANSWER = "KNOTTED"
KNOT_SEARCHED = 12
FIG8_COUNT = 110
FIG8_HASH = "4a50c39f6e38a1bc"
DUAL_COUNT = 54
DUAL_HASH = "675e662114210020"

KNOT_POOL = 32
DUAL_POOL = 16
GRID_SIZE = 3  # a 3 x 4 grid already takes minutes per query


def vectors_hash(vectors) -> str:
    blob = json.dumps(sorted(list(map(int, v)) for v in vectors),
                      separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _relabel_vector(v, names, relabelling) -> tuple[int, ...]:
    """Coordinates of vector v after `gen.relabel`: blocks move with
    their tetrahedron, triangle type t_x becomes t_sigma(x), and the
    quad separating {0, x} becomes the quad separating {sigma(0),
    sigma(x)}."""
    order, perms = relabelling
    new_index = {name: i for i, name in enumerate(order)}
    out = [0] * len(v)
    for i, name in enumerate(names):
        sigma = perms[name]
        base, new_base = BLOCK * i, BLOCK * new_index[name]
        for x in range(4):
            out[new_base + sigma[x]] = v[base + x]
        for k, (a, b) in enumerate(_QUAD_PAIRS):
            pair = {sigma[a], sigma[b]}
            partner = next(y for y in pair if y != 0) if 0 in pair else \
                next(y for y in (1, 2, 3) if y not in pair)
            out[new_base + 3 + partner] = v[base + 4 + k]
    return tuple(out)


class Workload:
    """One workload; `budget_admissible` is the `admissible_only` flag
    of the budget-overshoot probe on `budget_system`."""

    name = ""
    budget_admissible = True

    def generate(self, rng: random.Random, workdir: Path) -> list[dict]:
        raise NotImplementedError

    def load(self, entry: dict) -> dict:
        raise NotImplementedError

    def op(self, state: dict):
        raise NotImplementedError

    def check(self, state: dict, result) -> Optional[str]:
        raise NotImplementedError

    def budget_system(self, state: dict):
        """The matching system the budget-overshoot probe enumerates."""
        raise NotImplementedError


class KnotCli(Workload):
    """`normsurf unknot --json --homology-tri` on relabelled fixtures."""

    name = "knot-cli"

    def generate(self, rng, workdir):
        import gen
        from normsurf import fixtures
        closed, complement = fixtures.fig8_closed(), fixtures.fig8_complement()
        knot = fixtures.fig8_link().components[0]
        longitude = fixtures.fig8_longitude_cycle()
        pool = []
        for k in range(KNOT_POOL):
            rl = gen.random_relabelling(closed.tetrahedra, rng)
            d = workdir / f"knot{k}"
            d.mkdir()
            pool.append({"argv": [
                "unknot",
                _write(d / "closed.json",
                       ns.serialize_triangulation(gen.relabel(closed, rl))),
                "--knot", _write(d / "knot.json", ns.serialize_link_component(
                    gen.relabel_component(knot, rl))),
                "--pushoff", _write(d / "longitude.json",
                                    ns.serialize_link_component(
                                        gen.relabel_component(longitude, rl))),
                "--homology-tri", _write(
                    d / "complement.json",
                    ns.serialize_triangulation(gen.relabel(complement, rl))),
                "--json"]})
        return pool

    def load(self, entry):
        return {"argv": entry["argv"]}

    def op(self, state):
        out, err = io.StringIO(), io.StringIO()
        cli = normsurf.cli
        code = cli.run(cli.build_config(state["argv"]), out, err)
        return code, out.getvalue(), err.getvalue()

    def check(self, state, result):
        code, out, err = result
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        doc = json.loads(out)
        got = (doc["answer"], doc["searchedCount"], doc["witness"])
        if got != (KNOT_ANSWER, KNOT_SEARCHED, None):
            return f"expected ({KNOT_ANSWER}, {KNOT_SEARCHED}, None), got {got}"
        return None

    def budget_system(self, state):
        argv = state["argv"]
        tri = ns.parse_triangulation(Path(argv[1]).read_text())
        link = ns.LinkSpec(components=tuple(
            ns.parse_link_component(Path(argv[i]).read_text())
            for i in (3, 5)))
        return ns.restrict_to_link(ns.build_matching_system(tri), tri, link)


class Fig8Enum(Workload):
    """Admissible fundamental surfaces of the canonical 10-tet complement."""

    name = "fig8-enum"

    def generate(self, rng, workdir):
        from normsurf import fixtures
        return [{"tri": _write(workdir / "fig8_10tet.json",
                               ns.serialize_triangulation(
                                   fixtures.fig8_complement()))}]

    def load(self, entry):
        tri = ns.parse_triangulation(Path(entry["tri"]).read_text())
        return {"system": ns.build_matching_system(tri)}

    def op(self, state):
        return ns.enumerate_fundamental(state["system"], admissible_only=True)

    def check(self, state, fs):
        got = (len(fs.vectors), vectors_hash(fs.vectors))
        if got != (FIG8_COUNT, FIG8_HASH):
            return f"expected ({FIG8_COUNT}, {FIG8_HASH}), got {got}"
        return None

    def budget_system(self, state):
        return state["system"]


class SplitPair(Workload):
    """split_link_check on two disjoint copies of the closed fixture."""

    name = "split-pair"

    def generate(self, rng, workdir):
        from normsurf import fixtures
        return [{
            "tri": _write(workdir / "pair.json", ns.serialize_triangulation(
                fixtures.disconnected_pair())),
            "link": _write(workdir / "pair_link.json", ns.serialize_link(
                fixtures.disconnected_link())),
        }]

    def load(self, entry):
        return {"tri": ns.parse_triangulation(Path(entry["tri"]).read_text()),
                "link": ns.parse_link(Path(entry["link"]).read_text())}

    def op(self, state):
        return ns.split_link_check(state["tri"], state["link"])

    def check(self, state, verdict):
        if verdict.answer != "SPLIT" or verdict.witness is None:
            return f"expected SPLIT with a witness, got {verdict.answer}"
        tri, link, w = state["tri"], state["link"], verdict.witness
        system = self.budget_system(state)
        if not (ns.is_solution(system, w) and ns.is_admissible(w)):
            return "witness is not an admissible solution off the link"
        report = ns.analyze(tri, w)
        if not (report.closed and report.components == 1
                and report.euler == 2):
            return f"witness is not a connected closed sphere: {report}"
        if not ns.separates(tri, w, link):
            return "witness does not separate the link components"
        return None

    def budget_system(self, state):
        tri = state["tri"]
        return ns.restrict_to_link(
            ns.build_matching_system(tri), tri, state["link"])


class DualBasis(Workload):
    """Full Hilbert basis of the restricted 12-tet system, plus two
    boundary-point queries on generated grid surfaces."""

    name = "dual-basis"
    budget_admissible = False

    def generate(self, rng, workdir):
        import gen
        from normsurf import fixtures
        closed, link = fixtures.fig8_closed(), fixtures.fig8_link()
        canonical = ns.enumerate_fundamental(
            ns.restrict_to_link(ns.build_matching_system(closed), closed, link))
        # Every expectation below derives from the canonical basis, so a
        # wrong one leaves none (None), and every operation then fails.
        valid = (len(canonical.vectors), vectors_hash(canonical.vectors)) \
            == (DUAL_COUNT, DUAL_HASH)
        pool = []
        for k in range(DUAL_POOL):
            # Vertex labels only: a shuffled tetrahedron order moves this
            # enumeration between 0.04 s and 6 s, too wide for a steady
            # median over a small pool.
            _, perms = gen.random_relabelling(closed.tetrahedra, rng)
            rl = (closed.tetrahedra, perms)
            d = workdir / f"dual{k}"
            d.mkdir()
            grid, gp, gq = gen.grid_surface(GRID_SIZE, rng)
            pair, pp, pq = gen.disjoint_grids(GRID_SIZE, rng)
            pool.append({
                "tri": _write(d / "closed.json", ns.serialize_triangulation(
                    gen.relabel(closed, rl))),
                "link": _write(d / "link.json", ns.serialize_link(ns.LinkSpec(
                    components=tuple(gen.relabel_component(c, rl)
                                     for c in link.components)))),
                "basis_hash": vectors_hash(
                    _relabel_vector(v, closed.tetrahedra, rl)
                    for v in canonical.vectors) if valid else None,
                "grid": _write(d / "grid.json", json.dumps(grid)),
                "grid_edges": [gp, gq],
                "pair": _write(d / "pair.json", json.dumps(pair)),
                "pair_edges": [pp, pq],
            })
        return pool

    def load(self, entry):
        tri = ns.parse_triangulation(Path(entry["tri"]).read_text())
        link = ns.parse_link(Path(entry["link"]).read_text())

        def edges(key):
            return [(name, tuple(pair)) for name, pair in entry[key]]

        return {
            "system": ns.restrict_to_link(
                ns.build_matching_system(tri), tri, link),
            "basis_hash": entry["basis_hash"],
            "grid": ns.parse_surface(Path(entry["grid"]).read_text()),
            "grid_edges": edges("grid_edges"),
            "pair": ns.parse_surface(Path(entry["pair"]).read_text()),
            "pair_edges": edges("pair_edges"),
        }

    def op(self, state):
        fs = ns.enumerate_fundamental(state["system"])
        joined = ns.connect_boundary_points(state["grid"], *state["grid_edges"])
        apart = ns.connect_boundary_points(state["pair"], *state["pair_edges"])
        return fs, joined, apart

    def check(self, state, result):
        fs, joined, apart = result
        if state["basis_hash"] is None:
            return (f"canonical basis is not ({DUAL_COUNT}, {DUAL_HASH}); "
                    "no expected basis")
        got = (len(fs.vectors), vectors_hash(fs.vectors))
        if got != (DUAL_COUNT, state["basis_hash"]):
            return f"expected ({DUAL_COUNT}, {state['basis_hash']}), got {got}"
        if joined is None:
            return "grid query found no path between connected edges"
        surf = state["grid"]
        if not ns.is_solution(ns.build_matching_system_2d(surf), joined):
            return "grid witness is not a normal curve"
        marked = [(surf.index(n), e) for n, e in state["grid_edges"]]
        for spot in surf.boundary_edges():
            i, (u, w) = spot
            crossings = joined[3 * i + u] + joined[3 * i + w]
            if crossings != (1 if spot in marked else 0):
                return (f"grid witness crosses boundary edge "
                        f"{surf.format_edge(i, (u, w))} {crossings} times")
        if apart is not None:
            return "disjoint grids reported connected"
        return None

    def budget_system(self, state):
        return state["system"]


WORKLOADS = {w.name: w for w in (KnotCli(), Fig8Enum(), SplitPair(), DualBasis())}
