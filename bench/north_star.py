"""The north-star workload: `persum score`, then `persum report` on its dump.

    python3 bench/north_star.py --label NAME [--small] [--repeat N]

The inputs are ROADMAP's recipe, built in a temporary directory with
perfbench/gen.py at its fixed seed: 2 200 test dialogs (22 000 in all), the
methods lead_post_process_base, long_post_process_base,
lead_long_post_process_base and pegasus, and pegasus's 40 prediction files.
`--small` uses 220 test dialogs. Each command runs `--repeat` times, each time
in a fresh interpreter that imports persum from this checkout's src/ and reads
its own peak RSS (RUSAGE_SELF). The result goes to bench/BENCH_<NAME>.json:
per command the median and every run of wall seconds and peak RSS; for
`score` also its stderr line count, dump rows and bytes, and the dump and
report sha256; for `report` its report's sha256. Every repeat must write the
same bytes and stderr line count as the first, or the script exits 1.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402

METHODS = ["lead_post_process_base", "long_post_process_base", "lead_long_post_process_base", "pegasus"]

# Runs one persum subcommand in this fresh interpreter and prints its wall time, peak RSS
# and stderr line count as JSON; argv: SRC_DIR, then the subcommand's arguments.
CHILD = """
import contextlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from persum.cli import main
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[2:])
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "wall_s": wall, "peak_rss_mb": rss, "stderr_lines": len(err.getvalue().splitlines())}))
"""


def build_inputs(work: Path, n_test: int) -> None:
    gen.write_scoring_inputs(work, gen.make_rand("north", 1), gen.ScoringScale(n_test, 5, True))
    config_path = work / "config.json"
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["methods"] = METHODS
    config["predictions"] = [p for p in config["predictions"] if p.startswith("pred_pegasus_")]
    config_path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def run_command(argv: list[str]) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "src"), *argv], capture_output=True, text=True, check=False
    )
    if done.returncode != 0:
        raise SystemExit(f"{argv[0]} crashed:\n{done.stderr}")
    result = json.loads(done.stdout)
    if result["code"] != 0:
        raise SystemExit(f"{argv[0]} exited {result['code']}")
    return result


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def summary(runs: list[dict]) -> dict:
    walls, rss = [r["wall_s"] for r in runs], [r["peak_rss_mb"] for r in runs]
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "wall_s_runs": walls,
        "peak_rss_mb_runs": rss,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="writes bench/BENCH_<label>.json")
    parser.add_argument("--small", action="store_true", help="220 test dialogs instead of 2 200")
    parser.add_argument("--repeat", type=int, default=1, help="runs per command; medians are reported")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    n_test = 220 if args.small else 2200

    with tempfile.TemporaryDirectory(prefix="north_star_") as tmp:
        work = Path(tmp)
        begin = time.perf_counter()
        build_inputs(work, n_test)
        generate_s = time.perf_counter() - begin
        input_bytes = sum(p.stat().st_size for p in work.iterdir())
        run_dir, report_path = work / "run", work / "report.md"
        dump_path = run_dir / "per_dialog_scores.csv"
        score_argv = ["score", "--config", str(work / "config.json"), "--output-dir", str(run_dir)]
        report_argv = ["report", "--per-dialog", str(dump_path), "--output", str(report_path)]
        score_runs, report_runs, digests = [], [], []
        for _ in range(args.repeat):
            score_runs.append(run_command(score_argv))
            report_runs.append(run_command(report_argv))
            digests.append((sha256(dump_path), sha256(run_dir / "report.md"), sha256(report_path),
                            score_runs[-1]["stderr_lines"]))
            print(f"score {score_runs[-1]['wall_s']:.2f} s, report {report_runs[-1]['wall_s']:.2f} s", file=sys.stderr)
        if len(set(digests)) != 1:
            raise SystemExit(f"outputs or stderr line counts differ between repeats: {digests}")
        with open(dump_path, "rb") as fh:
            dump_rows = sum(1 for _ in fh) - 1
        dump_bytes = dump_path.stat().st_size

    result = {
        "label": args.label,
        "n_test": n_test,
        "repeat": args.repeat,
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "generate_s": generate_s,
        "input_bytes": input_bytes,
        "score": {
            **summary(score_runs),
            "stderr_lines": digests[0][3],
            "dump_rows": dump_rows,
            "dump_bytes": dump_bytes,
            "dump_sha256": digests[0][0],
            "report_sha256": digests[0][1],
        },
        "report": {**summary(report_runs), "report_sha256": digests[0][2]},
    }
    out = ROOT / "bench" / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
