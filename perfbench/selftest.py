"""Self-tests of the benchmark itself, on tiny inputs. Run from the checkout root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gen
import run

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
TINY = {
    "tiny-predictions": run.scoring_workload(gen.ScoringScale(n_test=6, n_seeds=2, external=True)),
    "tiny-baselines": run.scoring_workload(gen.ScoringScale(n_test=6, n_seeds=2, external=False)),
    "tiny-ingest": run.ingest_workload(conversations=150),
}


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        (ROOT / run.WORK_DIR).mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / run.WORK_DIR))
        run.WORKLOADS.update(TINY)

    def tearDown(self):
        shutil.rmtree(self.work)
        for name in TINY:
            del run.WORKLOADS[name]

    def generated(self, workload: str, seed: int) -> dict[str, str]:
        out = self.work / f"{workload}-{seed}-{len(list(self.work.iterdir()))}"
        out.mkdir()
        generate = run.WORKLOADS[workload][0]
        generate(out, gen.make_rand(workload, seed))
        return _digests(out)

    def test_generator_is_deterministic_per_seed_and_differs_across_seeds(self):
        for workload in TINY:
            with self.subTest(workload=workload):
                first = self.generated(workload, 3)
                self.assertEqual(first, self.generated(workload, 3))
                self.assertNotEqual(first, self.generated(workload, 4))

    def test_oracle_check_fails_on_one_perturbed_dump_value(self):
        for workload in ("tiny-predictions", "tiny-baselines"):
            with self.subTest(workload=workload):
                inputs, out = self.work / f"{workload}-in", self.work / f"{workload}-out"
                inputs.mkdir()
                generate, plan_for, make_checks = run.WORKLOADS[workload]
                generate(inputs, gen.make_rand(workload, 5))
                from persum.cli import main

                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    self.assertEqual(main(plan_for(inputs, out)[0]["argv"]), 0)
                checks = make_checks(inputs, {}, 5)
                dump = out / "per_dialog_scores.csv"
                failures, rows = checks.check_dump(dump)
                self.assertEqual(failures, [])

                lines = dump.read_text(encoding="utf-8").splitlines(keepends=True)
                victim = checks.sample(rows)[0] + 1  # +1 skips the header line
                fields = lines[victim].rstrip("\n").split(",")
                fields[-1] = repr(float(fields[-1]) + 1e-9)
                lines[victim] = ",".join(fields) + "\n"
                dump.write_text("".join(lines), encoding="utf-8")
                failures, _ = checks.check_dump(dump)
                self.assertEqual(len(failures), 1)
                self.assertIn(f"dump row {victim + 1}", failures[0])

    def test_nonzero_exit_counts_as_a_failed_operation(self):
        generate, plan_for, make_checks = TINY["tiny-predictions"]

        def broken_plan(inputs: Path, out: Path) -> list[dict]:
            plan = plan_for(inputs, out)
            plan[1]["argv"][plan[1]["argv"].index("--per-dialog") + 1] = str(out / "absent.csv")
            return plan

        run.WORKLOADS["tiny-broken"] = (generate, broken_plan, make_checks)
        try:
            result, details = run.measure("tiny-broken", 1, 0, False, ROOT / "src", self.work)
        finally:
            del run.WORKLOADS["tiny-broken"]
        self.assertFalse(result["correct"])
        self.assertEqual(set(result["metrics"]), {name for name, _, _, _ in run.END_TO_END})
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertEqual(result["metrics"]["ok_share"]["value"], 0.5)
        self.assertTrue(details["failures"]["pass0:1:report"][0].startswith("exit code 2"))

    def test_traced_passes_write_the_untraced_bytes_and_report_every_layer_metric(self):
        for workload, busy in (("tiny-predictions", "rouge.score_pair.calls"), ("tiny-ingest", "corpus.read_tweet_csv.s")):
            with self.subTest(workload=workload):
                work = self.work / workload
                work.mkdir()
                result, details = run.measure(workload, 2, 0, True, ROOT / "src", work)
                self.assertTrue(result["correct"], details["failures"])
                self.assertEqual([p["traced"] for p in details["passes"]], [False, True])
                self.assertEqual(set(result["metrics"]), {name for name, _, _ in run.PER_LAYER})
                self.assertGreater(result["metrics"][busy]["value"], 0)

    def test_benchmark_json_lists_what_run_py_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], [w for w in run.WORKLOADS if w not in TINY])
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(run.PER_LAYER))


def tearDownModule():
    try:
        (ROOT / run.WORK_DIR).rmdir()
    except OSError:
        pass  # a benchmark run is using it


if __name__ == "__main__":
    unittest.main()
