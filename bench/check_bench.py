"""The benchmark's own tests.

    python3 -m pytest -q bench/check_bench.py

Runs every workload in quick mode (two operations, one set-up sample)
with and without tracing, and checks the output schema against
BENCHMARK.json, a zero error rate, that the deterministic counters
repeat exactly for one seed, and that the expected answers agree with
the hand-derived tables in tests/tables.py. The file name keeps it out
of the repository's default pytest collection, since it takes a couple
of minutes.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import normsurf as ns  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from normsurf import fixtures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@functools.cache
def quick(workload: str, trace: int, repeat: int = 0) -> tuple[dict, str]:
    """(result line, stdout) of a quick run; `repeat` asks for a fresh
    run with the same arguments."""
    proc = bench("--workload", workload, "--seed", str(SEED),
                 "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_spec_matches_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(workloads.WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in SPEC[key]] == list(table)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_quick_run(workload, trace):
    doc, stdout = quick(workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 3
    assert "error_rate: 0.0000 ratio" in stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for name, metric in doc["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counters_repeat(workload):
    first, _ = quick(workload, 1)
    second, _ = quick(workload, 1, repeat=1)
    for name in run.DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name


def test_layer_attribution():
    """Each layer shows up on the workloads meant to exercise it."""
    m = {w: quick(w, 1)[0]["metrics"] for w in run.WORKLOAD_NAMES}
    value = lambda w, k: m[w][k]["value"]  # noqa: E731
    assert value("fig8-enum", "hilbert.candidates") == 254857
    assert value("fig8-enum", "hilbert.vectors") == 110
    assert value("split-pair", "detect.searched") == 53
    assert value("split-pair", "surface.separates_calls") == 1
    assert value("knot-cli", "detect.searched") == 12
    assert value("knot-cli", "homology.calls") == 1
    assert value("dual-basis", "curves2d.connect_calls") == 2
    for w in ("fig8-enum", "dual-basis"):
        assert value(w, "surface.analyze_calls") == 0
    for w in ("fig8-enum", "split-pair", "dual-basis"):
        assert value(w, "cli.self_s") == 0
        assert value(w, "homology.calls") == 0


def test_fails_without_the_package():
    bare = ROOT / ".bench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "knot-cli", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _tables():
    spec = importlib.util.spec_from_file_location(
        "tables", ROOT / "tests" / "tables.py")
    tables = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tables)
    return tables


def test_expectations_match_tables():
    tables = _tables()
    closed = fixtures.fig8_closed()
    restricted = ns.restrict_to_link(
        ns.build_matching_system(closed), closed, fixtures.fig8_link())
    basis = ns.enumerate_fundamental(restricted)
    assert len(basis.vectors) == workloads.DUAL_COUNT
    assert workloads.vectors_hash(basis.vectors) == workloads.DUAL_HASH
    admissible = {v for v in basis.vectors if ns.is_admissible(v)}
    assert admissible == set(tables.reference_solutions(closed))
    longitude = fixtures.fig8_longitude_cycle().edges[0]
    assert f"{longitude[0]}({''.join(map(str, longitude[1]))})" in \
        tables.LONGITUDE_CLASS_MEMBERS


def test_relabelled_basis_is_the_permuted_basis():
    closed, link = fixtures.fig8_closed(), fixtures.fig8_link()

    def basis(tri, link):
        return ns.enumerate_fundamental(ns.restrict_to_link(
            ns.build_matching_system(tri), tri, link)).vectors

    rl = gen.random_relabelling(closed.tetrahedra, random.Random(5))
    moved = gen.relabel(closed, rl)
    moved_link = ns.LinkSpec(components=tuple(
        gen.relabel_component(c, rl) for c in link.components))
    assert ns.validate(moved) == []
    expected = {workloads._relabel_vector(v, closed.tetrahedra, rl)
                for v in basis(closed, link)}
    assert set(basis(moved, moved_link)) == expected


def test_grids():
    rng = random.Random(0)
    doc, p, q = gen.grid_surface(3, rng)
    surf = ns.parse_surface(json.dumps(doc))
    assert ns.validate_surface(surf) == [] and surf.is_connected()
    assert len(surf.boundary_edges()) == 12
    doc, p, q = gen.disjoint_grids(2, rng)
    pair = ns.parse_surface(json.dumps(doc))
    assert not pair.is_connected() and pair.triangle_count == 16
    assert ns.connect_boundary_points(pair, p, q) is None
