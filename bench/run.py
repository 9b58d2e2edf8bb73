"""Benchmark of the normsurf package: one workload per run.

    python3 bench/run.py --workload knot-cli --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory, never from an installed copy. Inputs are written
from the seed under `.bench_work/`. Load is one process, one thread and
a closed loop with one client: each operation starts when the previous
one returns, and its answer is checked outside the timed region.

With `--trace 0` the run reports the end-to-end metrics; with
`--trace 1` it reports the per-layer metrics from a traced pass (see
spans.py). Every time reported is in reference seconds: measured
seconds scaled by a fixed kernel timed next to them (see speed.py).
`--quick` runs two operations instead of `--seconds` worth.
Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 means a result was printed (correct may still be false).
See README.md for the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S, Kernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("knot-cli", "fig8-enum", "split-pair", "dual-basis")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5
PROBE_BUDGET_S = 0.05
PROBE_CALLS = 3

END_TO_END = (("setup_s", "s"), ("op_p50_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("setup.import_s", "s"), ("setup.first_op_s", "s"),
    ("cli.self_s", "s"),
    ("triangulation.parse_s", "s"), ("triangulation.skeleton_s", "s"),
    ("triangulation.skeleton_calls", "count"),
    ("matching.build_s", "s"), ("matching.restrict_s", "s"),
    ("matching.variables", "count"), ("matching.equations", "count"),
    ("matching.forced_zeros", "count"),
    ("hilbert.enumerate_s", "s"), ("hilbert.calls", "count"),
    ("hilbert.candidates", "count"), ("hilbert.vectors", "count"),
    ("hilbert.vectors_per_candidate", "ratio"),
    ("hilbert.budget_overshoot_s", "s"),
    ("surface.analyze_s", "s"), ("surface.analyze_calls", "count"),
    ("surface.separates_s", "s"), ("surface.separates_calls", "count"),
    ("detect.self_s", "s"), ("detect.searched", "count"),
    ("detect.witnesses_per_analyze", "ratio"),
    ("homology.verify_s", "s"), ("homology.calls", "count"),
    ("curves2d.connect_s", "s"), ("curves2d.connect_calls", "count"),
    ("trace.overhead_s", "s"),
)
# Counts that depend only on the seed; the bench's test asserts that
# they repeat exactly.
DETERMINISTIC = tuple(name for name, unit in PER_LAYER if unit == "count") + (
    "hilbert.vectors_per_candidate", "detect.witnesses_per_analyze")

PARSERS = ("parse_triangulation", "parse_link", "parse_link_component",
           "parse_cycle")


class Session:
    """Operations attempted and failed, and the machine's speed.

    A failure is an exception, an UNKNOWN answer or any other wrong
    answer. The reference kernel (speed.py) runs before the first
    operation and after every operation; `rescale` gives the factor
    that turns the last operation's measured seconds into reference
    seconds, from the kernel passes on either side of it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kernel = Kernel()
        self._kernel_s = self.kernel.seconds()

    def record(self, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            print(f"FAILED: {error}", file=sys.stderr)

    def rescale(self) -> float:
        now = self.kernel.seconds()
        factor = 2 * REFERENCE_S / (self._kernel_s + now)
        self._kernel_s = now
        return factor


def _plain(fn, state):
    start = time.perf_counter()
    result = fn(state)
    return result, time.perf_counter() - start


def timed_op(w, state, session: Session, run=_plain):
    """One operation, its answer checked after the clock stops.

    Returns (reference seconds, scale factor), or None when the op
    raised."""
    try:
        result, elapsed = run(w.op, state)
    except Exception as exc:  # a failed op is counted, not fatal
        session.rescale()
        session.record(f"op raised {type(exc).__name__}: {exc}")
        return None
    factor = session.rescale()
    try:
        error = w.check(state, result)
    except Exception as exc:  # a malformed answer is a wrong answer
        error = f"check raised {type(exc).__name__}: {exc}"
    session.record(error)
    return elapsed * factor, factor


def cold_starts(workload: str, pool_path: Path, samples: int,
                session: Session) -> list[dict]:
    """Set-up samples, each in a fresh interpreter, one at a time."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("NORMSURF_")}
    env["PYTHONPATH"] = str(SRC)
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload,
             str(pool_path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            session.record(f"set-up process exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
            continue
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        session.record(sample["error"])
        out.append(sample)
    return out


def setup_median(samples: list[dict], key: str) -> float:
    return statistics.median(
        s[key] * REFERENCE_S / s["kernel_s"] for s in samples)


def untraced_run(w, states, seconds, quick, session):
    """Reference seconds of each warm operation, and the raw seconds."""
    times, raw = [], []
    timed_op(w, states[0], session)  # warm-up: lazy imports and caches
    deadline = time.perf_counter() + seconds
    k = 0
    while (k < 2) if quick else (time.perf_counter() < deadline):
        timed = timed_op(w, states[k % len(states)], session)
        if timed is not None:
            times.append(timed[0])
            raw.append(timed[0] / timed[1])
        k += 1
    return times, raw


def traced_run(w, states, seconds, quick, session):
    """Per-layer figures: counts from one traced op per pool entry,
    times as medians over all traced ops, and the overhead as traced
    minus untraced op_p50_s, with the two kinds of op alternating for
    the rest of the `seconds`."""
    from spans import Tracer, summarize
    timed_op(w, states[0], session)
    plain, traced, per_op, pending = [], [], [], []
    with Tracer() as tracer:
        def run(fn, state):
            result, elapsed, spans = tracer.run_op(fn, state)
            pending.append(summarize(spans))
            return result, elapsed

        def traced_op(state):
            timed = timed_op(w, state, session, run)
            if timed is not None:
                per_op.append((pending.pop(), timed[1]))
            return timed

        deadline = time.perf_counter() + seconds
        for state in states:
            traced_op(state)
        counted = [summary for summary, _ in per_op]
        k = 0
        while (k < 1) if quick else (time.perf_counter() < deadline):
            state = states[k % len(states)]
            timed = timed_op(w, state, session)
            if timed is not None:
                plain.append(timed[0])
            timed = traced_op(state)
            if timed is not None:
                traced.append(timed[0])
            k += 1
    if len(counted) != len(states) or not plain or not traced:
        return None, tracer.ops
    return layer_metrics(counted, per_op, plain, traced), tracer.ops


def layer_metrics(counted, per_op, plain, traced) -> dict[str, float]:
    """Counts are means over `counted`; times are medians over
    `per_op`, (summary, scale factor) pairs, in reference seconds."""
    def mean(key):
        return statistics.fmean(op.get(key, 0.0) for op in counted)

    def median(*keys):
        return statistics.median(
            factor * sum(op.get(key, 0.0) for key in keys)
            for op, factor in per_op)

    sizes = [op.get("enumerate_fundamental.size", (0, 0, 0)) for op in counted]
    candidates = mean("enumerate_fundamental.candidates")
    vectors = mean("enumerate_fundamental.vectors")
    analyze_calls = mean("analyze.calls")
    return {
        "cli.self_s": median("cli.self_s"),
        "triangulation.parse_s": median(*(f"{f}.s" for f in PARSERS)),
        "triangulation.skeleton_s": median("compute_skeleton.s"),
        "triangulation.skeleton_calls": mean("compute_skeleton.calls"),
        "matching.build_s": median("build_matching_system.s"),
        "matching.restrict_s": median("restrict_to_link.s"),
        "matching.variables": statistics.fmean(s[0] for s in sizes),
        "matching.equations": statistics.fmean(s[1] for s in sizes),
        "matching.forced_zeros": statistics.fmean(s[2] for s in sizes),
        "hilbert.enumerate_s": median("enumerate_fundamental.s"),
        "hilbert.calls": mean("enumerate_fundamental.calls"),
        "hilbert.candidates": candidates,
        "hilbert.vectors": vectors,
        "hilbert.vectors_per_candidate":
            vectors / candidates if candidates else 0.0,
        "surface.analyze_s": median("analyze.s"),
        "surface.analyze_calls": analyze_calls,
        "surface.separates_s": median("separates.s"),
        "surface.separates_calls": mean("separates.calls"),
        "detect.self_s": median("detect.self_s"),
        "detect.searched": mean("split_link_check.searched"),
        "detect.witnesses_per_analyze":
            mean("split_link_check.witnesses") / analyze_calls
            if analyze_calls else 0.0,
        "homology.verify_s": median("verify_zero_pushoff.s"),
        "homology.calls": mean("verify_zero_pushoff.calls"),
        "curves2d.connect_s": median("connect_boundary_points.s"),
        "curves2d.connect_calls": mean("connect_boundary_points.calls"),
        "trace.overhead_s":
            statistics.median(traced) - statistics.median(plain),
    }


def budget_overshoot(w, states, calls: int) -> float:
    """Median time from the deadline to the moment an enumeration given
    a tight time_budget raises; 0 for a call that finished in time.
    Measured seconds, since the deadline is real time."""
    import normsurf as ns
    overshoots = []
    for k in range(calls):
        system = w.budget_system(states[k % len(states)])
        start = time.perf_counter()
        try:
            ns.enumerate_fundamental(system, time_budget=PROBE_BUDGET_S,
                                     admissible_only=w.budget_admissible)
            overshoots.append(0.0)
        except ns.ResourceLimitExceeded:
            overshoots.append(time.perf_counter() - start - PROBE_BUDGET_S)
    return statistics.median(overshoots)


def write_spans(path: Path, ops) -> None:
    path.write_text(json.dumps([
        [{"layer": s.layer, "func": s.func, "parent": s.parent,
          "start": s.start, "end": s.end, "counts": s.counts} for s in op]
        for op in ops]))


def import_package():
    """Import normsurf from this checkout's src/, or explain why not."""
    if not (SRC / "normsurf" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'normsurf'}; run "
                         "from the root of a normsurf checkout")
    sys.path.insert(0, str(SRC))
    import normsurf
    if Path(normsurf.__file__).resolve().parent != SRC / "normsurf":
        raise SystemExit(f"imported normsurf from {normsurf.__file__}, "
                         f"not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="two operations and one set-up sample")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]
    for key in [k for k in os.environ if k.startswith("NORMSURF_")]:
        del os.environ[key]  # resource caps would change the answers

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{w.name}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        pool = w.generate(random.Random(f"{w.name}/{args.seed}"), workdir)
        pool_path = workdir / "pool.json"
        pool_path.write_text(json.dumps(pool))
        session = Session()
        setups = cold_starts(w.name, pool_path,
                             1 if args.quick else SETUP_SAMPLES, session)
        if not setups:
            print("every set-up sample failed", file=sys.stderr)
            return 1
        states = [w.load(entry) for entry in pool]
        if args.trace:
            metrics, ops = traced_run(w, states, args.seconds, args.quick,
                                      session)
            if metrics is None:
                print("the traced pass completed no operation",
                      file=sys.stderr)
                return 1
            write_spans(WORK / f"spans-{w.name}-s{args.seed}.json", ops)
            metrics["hilbert.budget_overshoot_s"] = budget_overshoot(
                w, states, 1 if args.quick else PROBE_CALLS)
            metrics["setup.import_s"] = setup_median(setups, "import_s")
            metrics["setup.first_op_s"] = setup_median(setups, "first_op_s")
            units = PER_LAYER
        else:
            times, raw = untraced_run(w, states, args.seconds, args.quick,
                                      session)
            if not times:
                print("no operation completed", file=sys.stderr)
                return 1
            metrics = {
                "setup_s": setup_median(setups, "setup_s"),
                "op_p50_s": statistics.median(times),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END
            print(f"op wall time as measured: median "
                  f"{statistics.median(raw):.6g} s")
            report_tail(times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {w.name}, seed {args.seed}: {session.attempted} ops "
          f"attempted, {session.failed} failed")
    print(f"error_rate: {session.failed / session.attempted:.4f} ratio")
    for name, unit in units:
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units},
    }))
    return 0


def report_tail(times: list[float]) -> None:
    """op_p90_s, printed only when at least ten samples lie above it."""
    if len(times) >= 10:
        p90 = statistics.quantiles(times, n=10)[-1]
        above = sum(t > p90 for t in times)
        if above >= 10:
            print(f"op_p90_s: {p90:.6g} s ({len(times)} samples, "
                  f"{above} above)")
            return
    print(f"op_p90_s: undefined ({len(times)} samples; needs ten above it)")


if __name__ == "__main__":
    sys.exit(main())
