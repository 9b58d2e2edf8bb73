"""The benchmark's use of the package, kept working.

bench/ drives the package through its public names (generators,
parsers, serializers, the CLI entry points). This imports the bench's
generator and workload modules, writes every workload's input pool for
one seed, loads one entry of each, and runs one checked operation of
every workload.
"""

import importlib
import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_workload_generates_and_loads(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    importlib.import_module("gen")
    workloads = importlib.import_module("workloads").WORKLOADS
    assert sorted(workloads) == ["dual-basis", "fig8-enum", "knot-cli",
                                 "split-pair"]
    for name, w in sorted(workloads.items()):
        workdir = tmp_path / name
        workdir.mkdir()
        pool = w.generate(random.Random(f"{name}/1"), workdir)
        assert pool
        state = w.load(pool[0])
        assert w.check(state, w.op(state)) is None
