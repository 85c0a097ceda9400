"""One fresh interpreter per measurement, so nothing but the measured work counts.

    python3 perfbench/worker.py setup SRC_DIR
        prints the seconds `import persum.cli` takes in this interpreter.
    python3 perfbench/worker.py run SRC_DIR PLAN_JSON RESULT_JSON TRACE
        runs the plan's subcommands through persum.cli.main, in order, and
        writes each one's exit code, wall time and captured output, plus the
        process's peak RSS, the calibration time and, with TRACE=1, the
        per-layer metrics.

persum.cli is imported before anything else, so the import time is that of a
fresh interpreter, and the persum package is taken from SRC_DIR only.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import persum.cli  # noqa: E402

import_s = time.perf_counter() - start

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402

CALIBRATION_PAIRS = 1200


def calibrate() -> float:
    """Seconds a fixed pure-Python job takes now: the yardstick for machine speed.

    It scores fixed text pairs with the benchmark's own oracle, which shares no
    code with persum, so no change to the program moves it.
    """
    vocab = gen.Vocabulary(random.Random("perfbench-calibration"))
    pairs = [(vocab.text(), vocab.text()) for _ in range(CALIBRATION_PAIRS)]
    begin = time.perf_counter()
    for candidate, reference in pairs:
        oracle.scores(candidate, reference)
    return time.perf_counter() - begin


def run_plan(plan: list[dict]) -> list[dict]:
    results = []
    for op in plan:
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = persum.cli.main(op["argv"])  # looked up per call, so a traced main is used
        except Exception:  # a crash is a failed operation, reported with its traceback
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - begin
        stderr = err.getvalue().splitlines()
        results.append(
            {
                "name": op["name"],
                "code": code,
                "wall_s": wall,
                "stdout": out.getvalue(),
                "stderr_lines": len(stderr),
                "stderr_head": stderr[:5],
            }
        )
    return results


def main() -> int:
    if sys.argv[1] == "setup":
        print(repr(import_s))
        return 0
    plan_path, result_path, trace = sys.argv[3], sys.argv[4], sys.argv[5] == "1"
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = None
    if trace:
        from spans import Tracer  # this script's directory is on sys.path

        tracer = Tracer()
        tracer.install()
    ops = run_plan(plan)
    result = {
        "ops": ops,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "layers": tracer.metrics() if tracer else None,
        "calib_s": calibrate(),  # after the RSS reading, so it does not count there
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
