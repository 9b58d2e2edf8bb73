"""Command-line interface: exit codes and byte-stable --json output."""

import hashlib
import json
import re

import pytest

from normsurf import cli
from normsurf.cli import main
from normsurf.fixtures import fig8_pushoff_cycle, solid_torus
from normsurf.triangulation import (EdgeCycle, IdealVertex, LinkSpec,
                                    serialize_link, serialize_link_component,
                                    serialize_triangulation)

from exteriors import cone

# sha256 of the --json output of each command, run on the files that
# `emit-fixtures` writes. Any change to these bytes is a change to the
# CLI's output contract.
JSON_DIGESTS = {
    "validate":
        "7e4532f1c697962810cc76e886d0ea2ad2e259b806673bc65da8344c481a5c2b",
    "skeleton":
        "f7b8dd73635b4067f52ee3a942048ef9c4872139720fe6fb84b77fc8a0736d6b",
    "split-check":
        "b373d9b790854c9fd994efc32097c8fe3a8a482e8f656d3d01507a73ecaa3c7c",
    "unknot":
        "99be913e0b9aded1f9ced19da72f44103287de64d07036beb136d62981165bd7",
    "homology":
        "63fc8ddf5e11e2d10a81e3e0d830797e4e65483e9ba49e39f95597f9cf708b3d",
    "fundamental":
        "24bc4d496908747dc850057bec1d4b0307bd7c5f73b6e322cb65d1f2ba1b2d5b",
    "curve2d":
        "5fe53bbafa8caec28abceaf64366c211ec2c1fc8f9a1b2daf2177ca17c85a51f",
}

# sha256 of `fundamental --tsv` on the restricted 12-tet system.
TSV_DIGEST = "2e9098bb68a9be6460947c0254e74f8e6ae22bd7696c155c4ca0f31e585ec786"

COMMANDS = {
    "validate": ["validate", "fig8_10tet.json"],
    "skeleton": ["skeleton", "fig8_12tet.json"],
    "split-check": ["split-check", "fig8_12tet.json",
                    "--link", "fig8_link.json"],
    "unknot": ["unknot", "fig8_12tet.json", "--knot", "fig8_knot.json",
               "--pushoff", "fig8_longitude.json",
               "--homology-tri", "fig8_10tet.json"],
    "homology": ["homology", "fig8_10tet.json",
                 "--cycle", "fig8_longitude.json"],
    "fundamental": ["fundamental", "fig8_12tet.json",
                    "--link", "fig8_link.json"],
    "curve2d": ["curve2d", "connect", "square_surface.json",
                "--from", "A:0,1", "--to", "B:1,2"],
}

# sha256 of the human-readable output of each command, on the same files;
# fundamental's elapsed seconds are masked.
HUMAN_DIGESTS = {
    "curve2d":
        "a7c4bd9de648a5b9413436029ec019abc72c527dbda7ff29b8cf92c613dcf2c7",
    "curve2d-not-connected":
        "23d4121fdf9f4857318adbaac85779b7ba6f8ee47efd2fa40f038cb92f14740c",
    "curve2d-same-edge":
        "eb2d8e86d1099c9d391ed1fee1b1c1b218ff1ca2158ed36073382cd9a5c7be14",
    "fundamental":
        "4d4ec3fb7c3ebaebbc62640d68cc13676159b5d187706dc51afbc18cb93b5812",
    "homology":
        "5ce93ff9273ba814297c480150d451acb06305d58a72ade2af5cdae9f15e24b2",
    "homology-not-null":
        "8fd9177b3d514006c41784216cb2c0c891d0e1a00456e07dfee98ed35c51c3c8",
    "homology-truncated":
        "c68f561fc31a7ccaef05233e9000483ba76d896fe61cd0130aaa5a33f9781900",
    "skeleton":
        "c30eea0e6407a737ea8210ec65da1b0820c26ca6b6524c3ae143f0360498b903",
    "split-witness":
        "811a93286262fba60ae7b84f39cf002ed1284ce8d3da5af5d4ded681483770b8",
    "validate":
        "0c042d78889d65192946656f0ab24936f4c68df6ed87945029d54d5b4049a185",
}

HUMAN_COMMANDS = {
    **COMMANDS,
    "homology-not-null": ["homology", "fig8_10tet.json",
                          "--cycle", "fig8_pushoff.json"],
    "homology-truncated": ["homology", "fig8_12tet.json"],
    "split-witness": ["split-check", "disconnected_pair.json",
                      "--link", "disconnected_link.json"],
    "curve2d-same-edge": ["curve2d", "connect", "square_surface.json",
                          "--from", "A:0,1", "--to", "A:1,0"],
    "curve2d-not-connected": ["curve2d", "connect", "two_triangles.json",
                              "--from", "A:0,1", "--to", "B:0,1"],
}


# Input files whose values have the wrong JSON type or shape.
MALFORMED = {
    "face_not_list.json": {"tetrahedra": ["a"], "gluings": [
        {"tet": "a", "face": 5, "to": {"tet": "a", "verts": [0, 1, 2]}}]},
    "tet_not_name.json": {"tetrahedra": ["a"], "gluings": [
        {"tet": ["a"], "face": [0, 1, 2],
         "to": {"tet": "a", "verts": [0, 1, 3]}}]},
    "names_not_strings.json": {"tetrahedra": [["a"]], "gluings": []},
    "face_nested.json": {"tetrahedra": ["a"], "gluings": [
        {"tet": "a", "face": [[0], 1, 2],
         "to": {"tet": "a", "verts": [0, 1, 3]}}]},
    "link_tet_not_name.json": {"components": [
        {"idealVertex": {"tet": ["h1"], "vertex": 0}},
        {"edgeCycle": [{"tet": "b1*", "edge": [1, 3]}]}]},
    # component files with more than the one key a link entry holds
    "cycle_and_vertex.json": {
        "edgeCycle": [{"tet": "b1*", "edge": [1, 2]}],
        "idealVertex": {"tet": "h1", "vertex": 0}},
    "knot_extra_key.json": {
        "idealVertex": {"tet": "h1", "vertex": 0}, "note": "the knot"},
    "top_not_object.json": ["a"],
    "no_tetrahedra.json": {"tetrahedra": [], "gluings": []},
    "gluings_not_list.json": {"tetrahedra": ["a"], "gluings": {}},
    "gluing_no_target.json": {"tetrahedra": ["a"], "gluings": [
        {"tet": "a", "face": [0, 1, 2]}]},
    "metadata_not_object.json": {"tetrahedra": ["a"], "gluings": [],
                                 "metadata": ["note"]},
    "empty_cycle.json": {"edgeCycle": []},
    "cycle_step_no_edge.json": {"edgeCycle": [{"tet": "b1*"}]},
    "vertex_no_label.json": {"idealVertex": {"tet": "h1"}},
    "components_not_list.json": {"components": {"knot": {
        "idealVertex": {"tet": "h1", "vertex": 0}}}},
    # one unknown key per kind of object in an input file
    "record_extra_key.json": {"tetrahedra": ["a"], "gluings": [
        {"tet": "a", "face": [0, 1, 2], "faces": [],
         "to": {"tet": "a", "verts": [0, 1, 3]}}]},
    "to_extra_key.json": {"tetrahedra": ["a"], "gluings": [
        {"tet": "a", "face": [0, 1, 2],
         "to": {"tet": "a", "verts": [0, 1, 3], "vert": []}}]},
    "surface_extra_key.json": {"triangles": ["A"], "gluing": []},
    "step_extra_key.json": {"edgeCycle": [
        {"tet": "b1*", "edge": [1, 3], "edges": []}]},
    "vertex_extra_key.json": {"idealVertex": {
        "tet": "h1", "vertex": 0, "vertx": 1}},
    # consistent gluings, but edge s(01) is glued to itself reversed
    "reversed_edge.json": {"tetrahedra": ["s"], "gluings": [
        {"tet": "s", "face": [0, 1, 2],
         "to": {"tet": "s", "verts": [1, 0, 3]}}]},
    # a one-tetrahedron S^3 named b1*, where every cycle is null
    "fake_exterior.json": {"tetrahedra": ["b1*"], "gluings": [
        {"tet": "b1*", "face": [0, 1, 2],
         "to": {"tet": "b1*", "verts": [0, 1, 3]}},
        {"tet": "b1*", "face": [0, 2, 3],
         "to": {"tet": "b1*", "verts": [2, 3, 1]}}]},
    # copy A's b1*(13), an edge cycle, as a knot in the pair
    "edge_knot.json": {"edgeCycle": [{"tet": "A.b1*", "edge": [1, 3]}]},
    # the apex of a cone's first cap, and p(12), a loop null in the
    # figure-eight's exterior but not parallel to the knot
    "cap_apex.json": {"idealVertex": {"tet": "c0", "vertex": 0}},
    "p12.json": {"edgeCycle": [{"tet": "p", "edge": [1, 2]}]},
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    assert main(["emit-fixtures", str(d)]) == 0
    (d / "bad.json").write_text('{"tetrahedra": ["a"], "gluings": ['
                                '{"tet": "a", "face": [0, 1, 2], '
                                '"to": {"tet": "a", "verts": [0, 2, 1]}}]}')
    for name, doc in MALFORMED.items():
        (d / name).write_text(json.dumps(doc))
    (d / "not_utf8.json").write_bytes(b"\xff\xfe{}")
    # nesting past the recursion limit, and an integer past Python's digit
    # limit in a label position, which is invalid even without the limit
    (d / "deep_nesting.json").write_text("[" * 100_000)
    (d / "long_integer.json").write_text(
        '{"tetrahedra": ["a"], "gluings": [{"tet": "a", "face": [0, 1, '
        + "9" * 5000 + '], "to": {"tet": "a", "verts": [0, 2, 1]}}]}')
    (d / "two_triangles.json").write_text(
        '{"triangles": ["A", "B"], "gluings": []}')
    # the solid torus with "gluing" for "gluings"; fig8_link.json with
    # an extra top-level key
    torus = json.loads((d / "solid_torus.json").read_text())
    torus["gluing"] = torus.pop("gluings")
    (d / "torus_misspelt.json").write_text(json.dumps(torus))
    link = json.loads((d / "fig8_link.json").read_text())
    (d / "link_extra_key.json").write_text(
        json.dumps({**link, "component": []}))
    (d / "pushoff_link.json").write_text(serialize_link(
        LinkSpec(components=(fig8_pushoff_cycle(),))))
    # out along an edge of the ideal vertex and back; the same along p(01)
    (d / "there_and_back.json").write_text(serialize_link_component(
        EdgeCycle(edges=(("h1", (0, 1)), ("h1", (1, 0))))))
    walk = EdgeCycle(edges=(("p", (0, 1)), ("p", (1, 0))))
    (d / "walk.json").write_text(serialize_link_component(walk))
    (d / "walk_link.json").write_text(serialize_link(LinkSpec(
        components=(IdealVertex("h1", 0), walk))))
    (d / "torus_cone.json").write_text(
        serialize_triangulation(cone(solid_torus())))
    return d


def run_cli(capsys, fixture_dir, argv):
    """Exit code and captured (stdout, stderr) of one invocation, with
    file arguments resolved inside fixture_dir."""
    capsys.readouterr()
    argv = [str(fixture_dir / a) if a.endswith(".json") else a
            for a in argv]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_output_bytes(capsys, fixture_dir, name):
    code, out, err = run_cli(capsys, fixture_dir, COMMANDS[name] + ["--json"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[name]


def test_tsv_output_bytes(capsys, fixture_dir):
    code, out, err = run_cli(capsys, fixture_dir,
                             COMMANDS["fundamental"] + ["--tsv"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == TSV_DIGEST


def test_fundamental_takes_a_one_component_link(capsys, fixture_dir):
    # the ideal vertex of fig8_link.json pins no variable to zero, so the
    # edge cycle alone gives the same output
    code, out, err = run_cli(capsys, fixture_dir, [
        "fundamental", "fig8_12tet.json", "--link", "pushoff_link.json",
        "--json"])
    assert code == 0, err
    assert (hashlib.sha256(out.encode()).hexdigest()
            == JSON_DIGESTS["fundamental"])


@pytest.mark.parametrize("name", sorted(HUMAN_DIGESTS))
def test_human_output_bytes(capsys, fixture_dir, name):
    code, out, err = run_cli(capsys, fixture_dir, HUMAN_COMMANDS[name])
    assert code == 0, err
    out = re.sub(r"candidates, [0-9.]+s\)", "candidates, *s)", out)
    assert hashlib.sha256(out.encode()).hexdigest() == HUMAN_DIGESTS[name]


def test_homology_of_two_complements_has_free_rank_two(capsys, tmp_path,
                                                       doubled10):
    (tmp_path / "doubled.json").write_text(serialize_triangulation(doubled10))
    code, out, err = run_cli(capsys, tmp_path, ["homology", "doubled.json"])
    assert (code, out) == (0, "H1 = Z^2\n"), err
    code, out, err = run_cli(capsys, tmp_path,
                             ["homology", "doubled.json", "--json"])
    assert code == 0, err
    assert json.loads(out)["freeRank"] == 2


def test_null_cycle_is_not_called_a_pushoff(capsys, fixture_dir):
    # null-homology does not make a 0-pushoff: p(01) p(10) is null, but
    # no link takes it as a component
    code, out, err = run_cli(capsys, fixture_dir,
                             ["homology", "fig8_12tet.json",
                              "--cycle", "walk.json"])
    assert code == 0, err
    assert "cycle class: 0 (null-homologous)" in out.splitlines()
    assert "pushoff" not in out


def test_unknot_reads_no_pushoff(capsys, fixture_dir):
    # the 0-pushoff is read off the knot's cusp, so neither --pushoff nor
    # --homology-tri is read: not b1*(13), which is not null, nor p(12),
    # which is null but not parallel to the knot (given as the pushoff,
    # it once answered KNOTTED after 7 searched), nor a missing file
    argv = ["unknot", "fig8_12tet.json", "--knot", "fig8_knot.json", "--json"]
    expected = run_cli(capsys, fixture_dir, argv)
    code, out, err = expected
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["answer"], doc["searchedCount"]) == ("KNOTTED", 12)
    for flag, names in (("--pushoff", ("fig8_pushoff.json",
                                       "fig8_longitude.json", "p12.json",
                                       "no_such_file.json")),
                        ("--homology-tri", ("fake_exterior.json",
                                            "no_such_file.json"))):
        for name in names:
            assert run_cli(capsys, fixture_dir,
                           argv + [flag, name]) == expected, (flag, name)


def test_doubled_back_walk_is_no_link_component(capsys, fixture_dir):
    # p(01) then p(10): its chain is 0, so it passes as null, but it is
    # no simple closed curve, so no link component
    code, out, err = run_cli(capsys, fixture_dir, [
        "split-check", "fig8_12tet.json", "--link", "walk_link.json"])
    assert (code, out) == (2, "")
    assert "not a simple closed curve" in err


def test_emit_fixtures_lists_every_file(capsys, tmp_path):
    capsys.readouterr()
    assert main(["emit-fixtures", str(tmp_path), "--json"]) == 0
    written = json.loads(capsys.readouterr().out)["written"]
    assert sorted(p.split("/")[-1] for p in written) == sorted(
        p.name for p in tmp_path.iterdir())


def test_human_output_exit_zero(capsys, fixture_dir):
    code, out, _ = run_cli(capsys, fixture_dir, COMMANDS["split-check"])
    assert code == 0
    assert out.splitlines()[0] == "verdict: NOT_SPLIT"
    code, out, _ = run_cli(capsys, fixture_dir, COMMANDS["unknot"])
    assert code == 0
    assert out.splitlines()[0] == "verdict: KNOTTED"


@pytest.mark.parametrize("argv, message", [
    (["validate", "bad.json"], "INVALID: self-gluing"),
    (["validate", "missing.json"], "error: "),
    (["split-check", "fig8_12tet.json", "--link", "fig8_knot.json"],
     "error: link file must be"),
    (["homology", "fig8_12tet.json", "--lenient"],
     "unrecognized arguments: --lenient"),
    (["curve2d", "connect", "square_surface.json",
      "--from", "A:0", "--to", "B:1,2"], "error: edge must look like"),
    (["split-check", "fig8_12tet.json", "--link", "fig8_link.json",
      "--max-candidates", "0"], "error: max-candidates must be positive"),
    (["no-such-command"], ""),
    (["fundamental", "fig8_12tet.json", "--time-budget", "0"],
     "error: time-budget must be positive"),
    (["fundamental", "fig8_12tet.json", "--json", "--tsv"],
     "error: --json and --tsv are mutually exclusive"),
    (["validate", "face_not_list.json"], "error: "),
    (["validate", "tet_not_name.json"], "error: "),
    (["validate", "names_not_strings.json"], "error: "),
    (["split-check", "fig8_12tet.json", "--link", "link_tet_not_name.json"],
     "error: unknown tetrahedron name"),
    (["validate", "face_nested.json"], "error: face must be three"),
    (["fundamental", "fig8_12tet.json", "--time-budget", "nan"],
     "error: time-budget must be positive"),
    (["validate", "not_utf8.json"], "error: "),
    (["homology", "fig8_12tet.json", "--cycle", "there_and_back.json"],
     "error: the walk visits a non-material vertex class"),
    (["split-check", "fig8_12tet.json", "--link", "pushoff_link.json"],
     "error: link must have exactly 2 components"),
    (["homology", "fig8_10tet.json", "--cycle", "cycle_and_vertex.json"],
     "error: each link component must be"),
    (["unknot", "fig8_12tet.json", "--knot", "knot_extra_key.json",
      "--pushoff", "fig8_longitude.json", "--homology-tri", "fig8_10tet.json"],
     "error: each link component must be"),
    # the resource caps belong to the four enumerating commands only
    (["validate", "fig8_10tet.json", "--max-candidates", "5"],
     "unrecognized arguments: --max-candidates 5"),
    (["homology", "fig8_10tet.json", "--time-budget", "1"],
     "unrecognized arguments: --time-budget 1"),
    (["curve2d", "connect", "square_surface.json",
      "--from", "A:0,x", "--to", "B:1,2"],
     "error: edge vertices must be integers"),
    (["skeleton", "bad.json"], "error: invalid triangulation: self-gluing"),
    (["validate", "top_not_object.json"],
     "error: top-level value must be an object"),
    (["validate", "no_tetrahedra.json"],
     'error: "tetrahedra" must be a nonempty list'),
    (["validate", "gluings_not_list.json"],
     'error: "gluings" must be a list'),
    (["validate", "gluing_no_target.json"],
     "error: gluing record 0 is malformed"),
    (["validate", "metadata_not_object.json"],
     'error: "metadata" must be an object'),
    (["homology", "fig8_10tet.json", "--cycle", "empty_cycle.json"],
     'error: "edgeCycle" must be a nonempty list'),
    (["homology", "fig8_10tet.json", "--cycle", "cycle_step_no_edge.json"],
     "error: bad edge cycle step"),
    (["unknot", "fig8_12tet.json", "--knot", "vertex_no_label.json",
      "--pushoff", "fig8_longitude.json", "--homology-tri", "fig8_10tet.json"],
     "error: bad idealVertex component"),
    (["split-check", "fig8_12tet.json", "--link", "components_not_list.json"],
     'error: "components" must be a list'),
    # the coned 1-tet solid torus: no edge of its cusp torus is null
    (["unknot", "torus_cone.json", "--knot", "cap_apex.json"],
     "error: 0 of the 3 edges of the knot's link torus are null, not 1"),
    (["homology", "fig8_12tet.json", "--cycle", "fig8_knot.json"],
     "error: a cycle must be an edge cycle"),
    (["validate", "torus_misspelt.json"],
     "error: unknown keys ['gluing'] in triangulation file"),
    (["split-check", "fig8_12tet.json", "--link", "link_extra_key.json"],
     "error: unknown keys ['component'] in link file"),
    (["validate", "record_extra_key.json"],
     "error: unknown keys ['faces'] in gluing record 0"),
    (["validate", "to_extra_key.json"],
     "error: unknown keys ['vert'] in \"to\" of gluing record 0"),
    (["curve2d", "connect", "surface_extra_key.json",
      "--from", "A:0,1", "--to", "A:1,2"],
     "error: unknown keys ['gluing'] in surface triangulation file"),
    (["homology", "fig8_10tet.json", "--cycle", "step_extra_key.json"],
     "error: unknown keys ['edges'] in edge cycle step"),
    (["unknot", "fig8_12tet.json", "--knot", "vertex_extra_key.json",
      "--pushoff", "fig8_longitude.json", "--homology-tri", "fig8_10tet.json"],
     "error: unknown keys ['vertx'] in idealVertex component"),
    (["validate", "reversed_edge.json"],
     "INVALID: edge class of s(01) is glued to itself reversed"),
    (["skeleton", "reversed_edge.json"],
     "error: invalid triangulation: edge class of s(01) is glued to itself "
     "reversed"),
    (["validate", "reversed_edge.json", "--json"], '"valid": false'),
    (["validate", "deep_nesting.json"], "error: unreadable JSON"),
    (["validate", "long_integer.json"], "error: "),
    # the pushoff is always verified; there is no switch to skip it
    (["unknot", "fig8_12tet.json", "--knot", "fig8_knot.json",
      "--pushoff", "fig8_longitude.json", "--waive-pushoff-check"],
     "unrecognized arguments: --waive-pushoff-check"),
    # an edge-cycle knot has no cusp to read a 0-pushoff off
    (["unknot", "disconnected_pair.json", "--knot", "edge_knot.json"],
     "error: the knot must be an ideal vertex whose link is a torus of "
     "two triangles"),
])
def test_invalid_input_exits_2(capsys, fixture_dir, argv, message):
    code, out, err = run_cli(capsys, fixture_dir, argv)
    assert code == 2
    assert message in out + err


def test_max_candidates_env_and_override(capsys, fixture_dir, monkeypatch):
    # The cap comes from --max-candidates alone; the environment is not read.
    monkeypatch.setenv("NORMSURF_MAX_CANDIDATES", "1")
    code, out, _ = run_cli(capsys, fixture_dir, COMMANDS["split-check"])
    assert code == 0
    assert out.splitlines()[0] == "verdict: NOT_SPLIT"
    argv = COMMANDS["split-check"] + ["--max-candidates", "1"]
    code, out, _ = run_cli(capsys, fixture_dir, argv)
    assert code == 3
    assert out.splitlines()[0] == "verdict: UNKNOWN"
    argv = COMMANDS["split-check"] + ["--max-candidates", "1000000"]
    code, out, _ = run_cli(capsys, fixture_dir, argv)
    assert code == 0
    assert out.splitlines()[0] == "verdict: NOT_SPLIT"


def test_resource_cap_exits_3(capsys, fixture_dir):
    argv = COMMANDS["split-check"] + ["--max-candidates", "1", "--json"]
    code, out, _ = run_cli(capsys, fixture_dir, argv)
    assert code == 3
    doc = json.loads(out)
    assert doc["answer"] == "UNKNOWN" and doc["diagnostics"]
    argv = COMMANDS["fundamental"] + ["--max-candidates", "1"]
    code, _, err = run_cli(capsys, fixture_dir, argv)
    assert code == 3
    assert err.startswith("resource cap exceeded:")


def test_split_witness_within_a_cap_below_the_full_enumeration(
        capsys, fixture_dir):
    # the witness is a vertex solution, found before the face stage
    # would pass the cap (the full enumeration charges 230,448)
    argv = HUMAN_COMMANDS["split-witness"] + ["--max-candidates", "230300"]
    code, out, _ = run_cli(capsys, fixture_dir, argv)
    assert code == 0
    assert out.splitlines()[0] == "verdict: SPLIT"


def test_out_of_memory_exits_3(capsys, fixture_dir, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 755. MiB for an array")

    monkeypatch.setattr(cli, "enumerate_fundamental", exhausted)
    code, out, err = run_cli(capsys, fixture_dir,
                             COMMANDS["fundamental"] + ["--json"])
    assert (code, out) == (3, "")
    assert err == ("resource cap exceeded: out of memory: "
                   "Unable to allocate 755. MiB for an array\n")
