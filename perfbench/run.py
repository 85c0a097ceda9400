"""persum benchmark: seeded inputs, timed subcommands, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a persum checkout; the package is imported from
./src only. It writes the workload's inputs from the seed, then runs
passes of the workload's subcommands, one fresh worker process per pass,
until S seconds have gone. Every operation's outputs are checked. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over passes).
Times are rescaled to the reference machine's speed by a calibration job each
worker times next to its pass (see README.md); raw times are in the details.
With --trace 1 passes alternate untraced and traced; the metrics are the
per-layer ones from the traced passes, the per-command throughputs from the
untraced ones, and the tracing overhead. The line before the result holds the
details: per-pass figures, failures and the sha256 of every output file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402

WORKER = HERE / "worker.py"
WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 5  # at least; runs of many passes take more
ORACLE_SAMPLE = 120  # dump rows re-scored by the O(nm) oracle per run
WORKER_TIMEOUT_S = 150
TOLERANCE = 1e-12
# Seconds worker.calibrate() takes on the reference machine (2-vCPU Xeon VM, Python
# 3.11.7). Timings are rescaled by this over the calibration measured beside each
# pass: the host's speed drifts by up to a third over minutes, and the rescaled
# times stay steady where raw ones do not.
CALIBRATION_REF_S = 0.18

# (name, unit, better, bound): the end-to-end metrics, as in BENCHMARK.json
END_TO_END = (
    ("wall_norm_s", "s", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_share", "ratio", "higher", 0.01),
)
# per-command throughput (items the command consumed or wrote per second of its wall time)
COMMAND_METRICS = (
    ("score_rows_per_s", "rows/s", "higher", "score"),
    ("report_rows_per_s", "rows/s", "higher", "report"),
    ("ingest_tweets_per_s", "tweets/s", "higher", "ingest"),
    ("weaklabel_dialogs_per_s", "dialogs/s", "higher", "weaklabel"),
)
PER_LAYER = (
    tuple((name, unit, better) for name, unit, better, _ in COMMAND_METRICS)
    + (("trace.overhead_s", "s", "lower"),)
    + LAYER_METRICS
)
DUMP_COLUMNS = ("dialog_id", "method", "perspective", "size", "seed", "r1_p", "r1_r", "r1_f", "r2_f", "rl_f")


def _op(name: str, argv: list, outputs: list[str]) -> dict:
    return {"name": name, "argv": [str(a) for a in argv], "outputs": outputs}


# --- score workloads ----------------------------------------------------------------


class ScoreChecks:
    """Checks `score` against the oracle and `report` against the report `score` wrote."""

    def __init__(self, inputs: Path, seed: int):
        self.seed = seed
        self.config = json.loads((inputs / "config.json").read_text(encoding="utf-8"))
        with open(inputs / "corpus.jsonl", encoding="utf-8") as fh:
            corpus = [json.loads(line) for line in fh]
        self.test = {d["id"]: d for d in corpus if d["split"] == "test" and d.get("gold")}
        self.predictions = {}
        for name in self.config["predictions"]:
            with open(inputs / name, encoding="utf-8") as fh:
                header = json.loads(fh.readline())
                entries = {e["dialog_id"]: e for e in map(json.loads, fh)}
            self.predictions[(header["method"], header["training_size"], header["seed"])] = entries
        self.expected = sorted(self._expected_keys())

    def candidate(self, did: str, method: str, perspective: str, size: int, seed: int) -> str | None:
        if oracle.BUILTIN.match(method):
            if not oracle.builtin_applies(method, perspective):
                return None
            return oracle.builtin_candidate(self.test[did]["utterances"], method, perspective)
        entry = self.predictions[(method, size, seed)].get(did)
        return oracle.external_candidate(entry, method, perspective)

    def _expected_keys(self):
        builtin_cache = {}
        for method in self.config["methods"]:
            for perspective in self.config["perspectives"]:
                for size in self.config["sizes"]:
                    for seed in range(self.config["n_seeds"]):
                        for did in self.test:
                            key = (did, method, perspective)
                            if oracle.BUILTIN.match(method):
                                if key not in builtin_cache:
                                    builtin_cache[key] = self.candidate(did, method, perspective, size, seed)
                                text = builtin_cache[key]
                            else:
                                text = self.candidate(did, method, perspective, size, seed)
                            if text is not None:
                                yield (did, method, perspective, str(size), str(seed))

    def sample(self, n_rows: int) -> list[int]:
        return random.Random(f"perfbench-check:{self.seed}").sample(range(n_rows), min(ORACLE_SAMPLE, n_rows))

    def check_dump(self, path: Path) -> tuple[list[str], int]:
        """Failures found in a per-dialog dump, and its row count."""
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            rows = list(reader)
        if header != DUMP_COLUMNS:
            return [f"dump header is {header}"], len(rows)
        failures = []
        keys = sorted(tuple(row[:5]) for row in rows)
        if keys != self.expected:
            failures.append(f"dump holds {len(keys)} row keys, expected {len(self.expected)} different ones")
        for index in self.sample(len(rows)):
            did, method, perspective, size, seed = rows[index][:5]
            text = self.candidate(did, method, perspective, int(size), int(seed))
            if text is None:
                failures.append(f"dump row {index + 2}: no candidate exists for it")
                continue
            want = oracle.scores(text, oracle.reference(self.test[did]["gold"], perspective))
            got = [float(value) for value in rows[index][5:]]
            if any(abs(a - b) > TOLERANCE for a, b in zip(want, got)):
                failures.append(f"dump row {index + 2}: scores {got} differ from the oracle's {list(want)}")
        return failures, len(rows)

    def check(self, plan: list[dict], ops: list[dict], out: Path) -> list[tuple[list[str], int]]:
        failures, rows = self.check_dump(out / "per_dialog_scores.csv")
        if not (out / "report.md").read_text(encoding="utf-8").startswith("# "):
            failures.append("report.md is not a markdown report")
        results = [(failures, rows)]
        for op in ops[1:]:  # report: regenerated from the dump, it must equal score's report
            same = (out / "regenerated.md").read_bytes() == (out / "report.md").read_bytes()
            results.append(([] if same else ["regenerated report differs from score's report.md"], rows))
        return results


def scoring_workload(scale: gen.ScoringScale):
    def generate(inputs: Path, rand: random.Random) -> dict:
        gen.write_scoring_inputs(inputs, rand, scale)
        return {}

    def plan(inputs: Path, out: Path) -> list[dict]:
        dump = out / "per_dialog_scores.csv"
        return [
            _op("score", ["score", "--config", inputs / "config.json", "--report", "md", "--output-dir", out],
                ["report.md", "per_dialog_scores.csv"]),
            _op("report", ["report", "--per-dialog", dump, "--format", "md", "--output", out / "regenerated.md"],
                ["regenerated.md"]),
        ]

    return generate, plan, lambda inputs, facts, seed: ScoreChecks(inputs, seed)


# --- ingest workload ----------------------------------------------------------------


class IngestChecks:
    """Reads ingest output back and checks the split and coverage counters against it."""

    def __init__(self, facts: dict):
        self.tweets = facts["tweets"]

    def check(self, plan: list[dict], ops: list[dict], out: Path) -> list[tuple[list[str], int]]:
        from persum.corpus import read_corpus

        results = []
        dialogs = None
        for step, op in zip(plan, ops):
            failures, work = [], 0
            if op["name"] == "ingest":
                match = re.fullmatch(r"dialogs: (\d+)\n", op["stdout"])
                dialogs = int(match.group(1)) if match else None
                read_back = len(read_corpus(out / "corpus.jsonl").dialogs)
                if not dialogs or read_back != dialogs:
                    failures.append(f"ingest printed {op['stdout'].strip()!r}; read_corpus found {read_back}")
                work = self.tweets
            elif op["name"] == "split":
                counts = dict(re.findall(r"(\w+)=(\d+)", op["stdout"]))
                if sum(map(int, counts.values())) != dialogs:
                    failures.append(f"split counts {counts} do not add up to {dialogs} dialogs")
                work = dialogs or 0
            elif op["name"] == "weaklabel":
                coverage = json.loads(op["stdout"])
                pairs_file, coverage_file = (out / name for name in step["outputs"])
                with open(pairs_file, encoding="utf-8") as fh:
                    pairs = sum(1 for _ in fh)
                if coverage["labeled"] + coverage["skipped"] + coverage["excluded"] != coverage["total"]:
                    failures.append(f"coverage {coverage}: labeled + skipped + excluded != total")
                if coverage["total"] != dialogs or pairs != coverage["labeled"]:
                    failures.append(f"coverage {coverage} vs {dialogs} dialogs and {pairs} pairs written")
                if json.loads(coverage_file.read_text(encoding="utf-8")) != coverage:
                    failures.append("coverage file differs from the printed coverage")
                work = coverage["total"]
            results.append((failures, work))
        return results


def ingest_workload(conversations: int):
    def generate(inputs: Path, rand: random.Random) -> dict:
        return gen.write_tweet_csv(inputs / "tweets.csv", rand, conversations)

    def plan(inputs: Path, out: Path) -> list[dict]:
        corpus, split = out / "corpus.jsonl", out / "split.jsonl"
        weak = []
        for side, heuristic, extra in (("customer", "lead", []), ("agent", "long", ["--masked"])):
            stem = f"{side}_{heuristic}"
            weak.append(_op(
                "weaklabel",
                ["weaklabel", "--corpus", split, "--perspective", side, "--heuristic", heuristic, *extra,
                 "--output", out / f"{stem}.jsonl", "--coverage", out / f"{stem}.coverage.json"],
                [f"{stem}.jsonl", f"{stem}.coverage.json"],
            ))
        return [
            _op("ingest", ["ingest", "--format", "kaggle-csv", "--input", inputs / "tweets.csv", "--output", corpus],
                ["corpus.jsonl"]),
            _op("split", ["split", "--corpus", corpus, "--output", split, "--seed", "0"], ["split.jsonl"]),
            *weak,
        ]

    return generate, plan, lambda inputs, facts, seed: IngestChecks(facts)


# Sizes give passes of a few seconds at the seed commit, so a run holds several
# passes now and many more after the planned scoring speed-ups.
WORKLOADS: dict[str, tuple[Callable, Callable, Callable]] = {
    # rouge does nearly all the work; every reference is tokenized again in each cell
    "score-predictions": scoring_workload(gen.ScoringScale(n_test=50, n_seeds=3, external=True)),
    # baselines are scored once and copied into 40 cells: dump write and read dominate
    "score-baselines": scoring_workload(gen.ScoringScale(n_test=120, n_seeds=5, external=False)),
    # CSV parse, thread rebuild and JSONL write/read; rouge and experiment do nothing
    "ingest-weaklabel": ingest_workload(conversations=6000),
}


# --- measurement --------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    ops: list[dict]
    import_s: float | None
    peak_rss_mb: float
    layers: dict | None
    calib_s: float | None

    @property
    def wall_s(self) -> float:
        return sum(op["wall_s"] for op in self.ops)

    @property
    def scale(self) -> float:
        """Factor that turns this pass's seconds into seconds at the reference speed."""
        return CALIBRATION_REF_S / self.calib_s if self.calib_s else 1.0

    def command_s(self, command: str) -> float:
        return self.scale * sum(op["wall_s"] for op in self.ops if op["name"] == command)


def setup_sample(src: Path) -> float:
    done = subprocess.run(
        [sys.executable, str(WORKER), "setup", str(src)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True,
    )
    return float(done.stdout)


def run_pass(src: Path, plan: list[dict], scratch: Path, traced: bool) -> Pass:
    plan_file, result_file = scratch / "plan.json", scratch / "result.json"
    plan_file.write_text(json.dumps(plan), encoding="utf-8")
    result_file.unlink(missing_ok=True)
    argv = [sys.executable, str(WORKER), "run", str(src), str(plan_file), str(result_file), "1" if traced else "0"]
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        crashed = done.returncode != 0 or not result_file.exists()
        detail = done.stderr[-2000:]
    except subprocess.TimeoutExpired:
        crashed, detail = True, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if crashed:
        ops = [{"name": op["name"], "code": None, "wall_s": 0.0, "stdout": "", "stderr_head": [detail]} for op in plan]
        return Pass(traced, ops, None, 0.0, None, None)
    result = json.loads(result_file.read_text(encoding="utf-8"))
    return Pass(
        traced, result["ops"], result["import_s"], result["peak_rss_mb"], result["layers"], result["calib_s"]
    )


def sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tally(passes: list[Pass], hashes: list[list[dict]], checked: list[tuple[list[str], int]]) -> dict:
    """Failed operations by pass and position, with what went wrong.

    Every operation must exit 0 and write the first pass's bytes; the first
    pass's operations also carry the in-depth check results.
    """
    failures: dict[str, list[str]] = {}
    for index, run in enumerate(passes):
        for position, op in enumerate(run.ops):
            problems = list(checked[position][0]) if index == 0 else []
            if op["code"] != 0:
                problems.append(f"exit code {op['code']}: {' | '.join(op['stderr_head'])}")
            written = hashes[index][position]
            if None in written.values():
                problems.append(f"did not write {[name for name, digest in written.items() if digest is None]}")
            elif written != hashes[0][position]:
                problems.append("output bytes differ from the first pass")
            if problems:
                failures[f"pass{index}:{position}:{op['name']}"] = problems
    return failures


def layer_metrics(passes: list[Pass], plan: list[dict], work_items: list[int]) -> dict:
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    metrics = {}
    for name, unit, _, command in COMMAND_METRICS:
        items = sum(w for op, w in zip(plan, work_items) if op["name"] == command)
        rates = [items / p.command_s(command) if p.command_s(command) else 0.0 for p in untraced]
        metrics[name] = (statistics.median(rates), unit)
    overhead = statistics.median(p.wall_s * p.scale for p in traced) - statistics.median(
        p.wall_s * p.scale for p in untraced
    )
    metrics["trace.overhead_s"] = (overhead, "s")
    for name, unit, _ in LAYER_METRICS:
        values = [p.layers[name] * (p.scale if unit == "s" else 1) for p in traced if p.layers]
        metrics[name] = (statistics.median(values) if values else 0.0, unit)
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, src: Path, work: Path) -> tuple[dict, dict]:
    generate, plan_for, make_checks = WORKLOADS[workload]
    inputs = work / "inputs"
    inputs.mkdir()
    begin = time.perf_counter()
    facts = generate(inputs, gen.make_rand(workload, seed))
    generate_s = time.perf_counter() - begin

    passes: list[Pass] = []
    hashes: list[list[dict]] = []
    first_out = work / "pass0"
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < seconds or (trace and len(passes) < 2):
        out = work / f"pass{len(passes)}"
        out.mkdir()
        plan = plan_for(inputs, out)
        passes.append(run_pass(src, plan, work, traced=trace and len(passes) % 2 == 1))
        hashes.append([{name: sha256(out / name) for name in op["outputs"]} for op in plan])
        if out != first_out:
            shutil.rmtree(out)
    measured_s = time.perf_counter() - begin
    # every worker imports persum.cli first thing, so each pass is also a set-up sample
    setup = [p.import_s for p in passes if p.import_s is not None]
    setup += [setup_sample(src) for _ in range(SETUP_SAMPLES - len(setup))]

    plan = plan_for(inputs, first_out)
    checked = [([], 0)] * len(plan)
    if all(op["code"] == 0 for op in passes[0].ops):
        try:
            checked = make_checks(inputs, facts, seed).check(plan, passes[0].ops, first_out)
        except Exception as exc:  # malformed output: every operation of the pass is suspect
            checked = [([f"output check raised {exc!r}"], 0)] * len(plan)
    work_items = [items for _, items in checked]
    failures = tally(passes, hashes, checked)
    attempted, failed = sum(len(p.ops) for p in passes), len(failures)

    if trace:
        metrics = layer_metrics(passes, plan, work_items)
    else:
        metrics = {
            "wall_norm_s": (statistics.median(p.wall_s * p.scale for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
            "ok_share": ((attempted - failed) / attempted, "ratio"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "generate_s": generate_s,
        "measured_s": measured_s,
        "setup_samples_s": setup,
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "calib_s": p.calib_s, "peak_rss_mb": p.peak_rss_mb,
             "ops": {f"{i}:{op['name']}": op["wall_s"] for i, op in enumerate(p.ops)}}
            for p in passes
        ],
        "work_items": {f"{i}:{op['name']}": items for i, (op, items) in enumerate(zip(plan, work_items))},
        "outputs_sha256": {name: digest for op_hashes in hashes[0] for name, digest in op_hashes.items()},
        "failures": failures,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "persum" / "cli.py").is_file():
        print(f"perfbench: {src / 'persum' / 'cli.py'} not found; run from the root of a persum checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # on SIGTERM, unwind: subprocess.run kills and reaps the worker, finally removes the files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace), src, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for op, found in details["failures"].items():
        print(f"perfbench: {op} failed: {found}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
