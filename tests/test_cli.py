"""Command-line interface: exit codes and byte-stable --json output."""

import hashlib
import json

import pytest

from normsurf.cli import main

# sha256 of the --json output of each command, run on the files that
# `emit-fixtures` writes. Any change to these bytes is a change to the
# CLI's output contract.
JSON_DIGESTS = {
    "validate":
        "7e4532f1c697962810cc76e886d0ea2ad2e259b806673bc65da8344c481a5c2b",
    "skeleton":
        "376a2ac076403a42acb1ed94180516ead28edc73c37acc2695871d73ea6b09a9",
    "split-check":
        "b373d9b790854c9fd994efc32097c8fe3a8a482e8f656d3d01507a73ecaa3c7c",
    "unknot":
        "99be913e0b9aded1f9ced19da72f44103287de64d07036beb136d62981165bd7",
    "homology":
        "63fc8ddf5e11e2d10a81e3e0d830797e4e65483e9ba49e39f95597f9cf708b3d",
    "fundamental":
        "a61c099bf6bbf42d91789b2ed217b4239e92efd2321d8da050cda1c8787c33d0",
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


# Input files whose values have the wrong JSON type.
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
    (["homology", "fig8_12tet.json"], "error: vertex class(es)"),
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
    (["homology", "fig8_12tet.json"], "Use --lenient to compute"),
])
def test_invalid_input_exits_2(capsys, fixture_dir, argv, message):
    code, out, err = run_cli(capsys, fixture_dir, argv)
    assert code == 2
    assert message in out + err


def test_time_budget_env_must_be_a_number(capsys, fixture_dir,
                                         monkeypatch):
    monkeypatch.setenv("NORMSURF_TIME_BUDGET", "abc")
    code, out, err = run_cli(capsys, fixture_dir, COMMANDS["validate"])
    assert code == 2
    assert "error: NORMSURF_TIME_BUDGET must be a number" in err


def test_time_budget_env_must_be_positive(capsys, fixture_dir,
                                          monkeypatch):
    monkeypatch.setenv("NORMSURF_TIME_BUDGET", "nan")
    code, out, err = run_cli(capsys, fixture_dir, COMMANDS["validate"])
    assert code == 2
    assert "error: time-budget must be positive" in err


def test_max_candidates_env_and_override(capsys, fixture_dir, monkeypatch):
    monkeypatch.setenv("NORMSURF_MAX_CANDIDATES", "1")
    code, out, _ = run_cli(capsys, fixture_dir, COMMANDS["split-check"])
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
