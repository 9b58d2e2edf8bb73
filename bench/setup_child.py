"""One cold start, measured in a fresh interpreter.

    python3 bench/setup_child.py <workload> <pool.json>

Times `import normsurf`, then loading the pool's first entry and
running one operation on it, and prints one JSON line: import_s,
first_op_s (load plus operation), setup_s (their sum), kernel_s (the
median time of the reference kernel in speed.py, run right after, which
scales these times) and error (None when the answer checked out).
run.py starts this script once per set-up sample, one at a time.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str, pool_path: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    entry = json.loads(Path(pool_path).read_text())[0]
    start = time.perf_counter()
    import normsurf  # noqa: F401  (the import is what is timed)
    imported = time.perf_counter()
    from workloads import WORKLOADS
    w = WORKLOADS[workload]
    state = w.load(entry)
    result = w.op(state)
    done = time.perf_counter()
    from speed import Kernel
    kernel_s = Kernel().median_seconds()
    error = w.check(state, result)
    print(json.dumps({"import_s": imported - start,
                      "first_op_s": done - imported,
                      "setup_s": done - start,
                      "kernel_s": kernel_s,
                      "error": error}))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
