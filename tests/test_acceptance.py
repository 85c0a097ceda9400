"""Acceptance gate: one test per release criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py`; every criterion prints its own
PASS line (failures surface as ordinary pytest failures). The benchmark
regression is dataset-optional and skips unless PERSUM_EVAL_CORPUS is set.
"""

from __future__ import annotations

import csv
import json
import os
import random
import time

import pytest

from persum import (
    Corpus,
    ExperimentConfig,
    Perspective,
    SpeakerRole,
    lead_utterance,
    long_utterance,
    make_dialog,
    read_corpus,
    run_experiment,
    sample_nested_subsets,
    weaklabel_corpus,
    write_corpus,
)
from persum.cli import main
from persum.corpus import load_split_csv, with_split
from persum.experiment import (
    read_per_dialog_csv,
    table_from_per_dialog,
    write_subset_files,
)
from persum.rouge import rouge_l, rouge_n, score_pair
from persum.summarize import OPENER_PATTERN, post_process
from persum.weaklabel import HeuristicKind
from util import (
    naive_lcs_prf,
    naive_lead,
    naive_long,
    naive_ngram_prf,
    random_text,
    random_token_list,
    synthetic_corpus,
)

C = SpeakerRole.CUSTOMER
A = SpeakerRole.AGENT

TOL = 1e-12


@pytest.fixture
def announce(capsys):
    def _announce(line: str) -> None:
        with capsys.disabled():
            print(line)

    return _announce


def test_criterion_1_rouge_matches_oracles(announce):
    rand = random.Random(101)
    start = time.perf_counter()
    for _ in range(1000):
        cand = random_token_list(rand, max_len=12)
        ref = random_token_list(rand, max_len=12)
        for n in (1, 2):
            got = rouge_n(cand, ref, n)
            p, r, f = naive_ngram_prf(cand, ref, n)
            assert abs(got.precision - p) <= TOL
            assert abs(got.recall - r) <= TOL
            assert abs(got.f_measure - f) <= TOL
        got = rouge_l(cand, ref)
        p, r, f = naive_lcs_prf(cand, ref)
        assert abs(got.precision - p) <= TOL
        assert abs(got.recall - r) <= TOL
        assert abs(got.f_measure - f) <= TOL
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"
    announce(f"PASS criterion 1: rouge_n/rouge_l match naive oracles on 1000 pairs in {elapsed:.2f}s")


def test_criterion_2_pinned_worked_example(announce):
    row = score_pair("the cat on mat", "the cat sat on the mat")
    assert row.r1_f == 0.8
    assert row.r2_f == 0.25
    assert row.rl_f == 0.8
    announce("PASS criterion 2: worked example scores exactly (0.8, 0.25, 0.8)")


def test_criterion_3_heuristics_match_naive_scans(announce):
    rand = random.Random(303)
    agreements = 0
    for i in range(1000):
        # every third dialog uses a narrow token range to force length ties
        max_tokens = 6 if i % 3 == 0 else 14
        dialog = make_dialog(
            f"d{i}",
            [
                (rand.choice((C, A)), random_text(rand, 1, max_tokens))
                for _ in range(rand.randint(1, 12))
            ],
        )
        for role in (C, A):
            assert lead_utterance(dialog, role) is naive_lead(dialog, role)
            assert long_utterance(dialog, role) is naive_long(dialog, role)
            agreements += 2
    announce(f"PASS criterion 3: lead/long agree with naive scans on 1000 dialogs ({agreements} checks)")


def test_criterion_4_nested_subsets_reproducible(announce, tmp_path):
    sizes = [16, 32, 64, 128, 256, 512]
    population = [f"d{i:04d}" for i in range(600)]
    families = [sample_nested_subsets(population, sizes, seed) for seed in range(5)]
    for family in families:
        for small, large in zip(sizes, sizes[1:]):
            assert family.subsets[large][:small] == family.subsets[small]
    rerun = [sample_nested_subsets(population, sizes, seed) for seed in range(5)]
    write_subset_files(families, tmp_path / "a")
    write_subset_files(rerun, tmp_path / "b")
    for seed in range(5):
        for size in sizes:
            a = (tmp_path / "a" / str(seed) / f"{size}.txt").read_bytes()
            b = (tmp_path / "b" / str(seed) / f"{size}.txt").read_bytes()
            assert a == b
    announce("PASS criterion 4: subsets nest for 5 seeds and reruns are byte-identical")


def test_criterion_5_post_process_idempotent(announce):
    rand = random.Random(505)
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,!?:'-"
    samples = [
        "Customer asks about a refund.",
        "customer asks about a refund.",
        "The agent suggested restarting.",
        "the agent suggested restarting.",
        "The Customer is upset.",
        "AGENT escalated the ticket.",
        "Customers keep writing in.",
        "Agentive behaviour is off-topic.",
        "cannot attach files to email.",
    ]
    while len(samples) < 10_009:
        text = "".join(rand.choice(alphabet) for _ in range(rand.randint(1, 60)))
        if text.strip():
            samples.append(text)
    for text in samples:
        for role in (C, A):
            once, fired = post_process(text, role)
            twice, fired_again = post_process(once, role)
            assert twice == once
            assert not fired_again
            assert fired == (OPENER_PATTERN.match(text) is None)
    announce(f"PASS criterion 5: post_process idempotent on {len(samples)} strings x 2 roles")


def test_criterion_6_helpdesk_fixture_candidates(announce, helpdesk_path):
    corpus = read_corpus(helpdesk_path)
    dialog = corpus.dialogs[0]
    first_customer = next(u for u in dialog.utterances if u.role is C)
    lead = lead_utterance(dialog, C)
    assert lead is not None
    assert lead.text == first_customer.text
    long = long_utterance(dialog, A)
    assert long is not None
    assert long.text.startswith("First, please, exit the email app.")
    assert long.text == dialog.utterances[3].text
    announce("PASS criterion 6: fixture dialog yields the expected lead/long utterances")


def test_criterion_7_base_rows_constant_end_to_end(announce, tmp_path):
    corpus = synthetic_corpus(random.Random(707), 30, with_gold=True, with_split=True)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    config = {
        "methods": [
            "lead_base",
            "long_base",
            "lead_post_process_base",
            "long_post_process_base",
            "lead_long_post_process_base",
        ],
        "perspectives": ["customer", "agent", "full"],
        "sizes": [0, 16, 1024],
        "n_seeds": 5,
        "cap_to_population": True,
        "corpus": str(corpus_path),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "run"
    code = main(["score", "--config", str(config_path), "--report", "csv", "--output-dir", str(out_dir)])
    assert code == 0

    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1
    for row in rows[1:]:
        cells = row[3:]
        assert len(set(cells)) == 1, f"row not constant across sizes: {row}"

    dump = read_per_dialog_csv(out_dir / "per_dialog_scores.csv")
    recomputed = table_from_per_dialog(dump)
    reference = run_experiment(
        read_corpus(corpus_path),
        ExperimentConfig(
            methods=config["methods"],
            perspectives=[Perspective(p) for p in config["perspectives"]],
            sizes=(0, 16, 1024),
            n_seeds=5,
            cap_to_population=True,
        ),
    ).table
    assert set(recomputed.rows) == set(reference.rows)
    for key, cells in reference.rows.items():
        for size, cell in cells.items():
            other = recomputed.rows[key][size]
            assert abs(other.mean - cell.mean) <= 1e-9
            assert abs(other.deviation - cell.deviation) <= 1e-9
    announce("PASS criterion 7: base rows constant over sizes {0,16,1024-capped}; dump recomputes to 1e-9")


def test_criterion_8_benchmark_regression(announce):
    corpus_path = os.environ.get("PERSUM_EVAL_CORPUS")
    if not corpus_path:
        pytest.skip("set PERSUM_EVAL_CORPUS (and PERSUM_EVAL_SPLIT) to run the benchmark regression")
    corpus = read_corpus(corpus_path)
    split_path = os.environ.get("PERSUM_EVAL_SPLIT")
    if split_path:
        corpus = with_split(corpus, load_split_csv(split_path))
    if corpus.split is None:
        pytest.fail("benchmark corpus needs a split (inline or via PERSUM_EVAL_SPLIT)")
    config = ExperimentConfig(
        methods=["lead_post_process_base", "long_post_process_base", "lead_long_post_process_base"],
        perspectives=[Perspective.CUSTOMER, Perspective.AGENT, Perspective.FULL],
        sizes=(0,),
        n_seeds=1,
    )
    table = run_experiment(corpus, config).table.rows
    checks = [
        (("lead_post_process_base", Perspective.CUSTOMER, "rouge1"), 0.3875),
        (("long_post_process_base", Perspective.AGENT, "rougeL"), 0.2314),
        (("lead_long_post_process_base", Perspective.FULL, "rougeL"), 0.2875),
    ]
    for key, expected in checks:
        got = table[key][0].mean
        assert abs(got - expected) <= 0.015, f"{key}: got {got * 100:.2f}, expected {expected * 100:.2f} +/-1.5"
    announce("PASS criterion 8: benchmark scores within +/-1.5 points of the reference values")


def test_criterion_8_plumbing_on_synthetic_corpus(tmp_path, monkeypatch, announce):
    # guards the env-gated path against bitrot: with a synthetic corpus the
    # checks must run end to end and fail on the score bands, not earlier
    corpus = synthetic_corpus(random.Random(808), 30, with_gold=True, with_split=True)
    path = tmp_path / "bench.jsonl"
    write_corpus(corpus, path)
    monkeypatch.setenv("PERSUM_EVAL_CORPUS", str(path))
    monkeypatch.delenv("PERSUM_EVAL_SPLIT", raising=False)
    try:
        test_criterion_8_benchmark_regression(announce)
    except AssertionError as exc:
        assert "expected" in str(exc)


def test_criterion_9_throughput(announce):
    rand = random.Random(909)
    dialogs = []
    for i in range(22_000):
        n_utts = rand.randint(8, 12)  # averages 10
        turns = [(rand.choice((C, A)), random_text(rand, 1, 14)) for _ in range(n_utts)]
        dialogs.append(make_dialog(f"d{i}", turns))
    corpus = Corpus(dialogs)
    start = time.perf_counter()
    pairs, report = weaklabel_corpus(corpus, C, HeuristicKind.LONG, masked=True)
    label_time = time.perf_counter() - start
    assert report.total == 22_000
    assert report.labeled == len(pairs)
    assert label_time < 10.0, f"weak labeling took {label_time:.2f}s"

    scoring_pairs = [
        (random_text(rand, 15, 30), random_text(rand, 15, 30)) for _ in range(110)
    ]
    start = time.perf_counter()
    for cand, ref in scoring_pairs:
        score_pair(cand, ref)
    score_time = time.perf_counter() - start
    assert score_time < 1.0, f"scoring 110 pairs took {score_time:.3f}s"
    announce(
        f"PASS criterion 9: 22k dialogs weak-labeled in {label_time:.2f}s; 110 pairs scored in {score_time:.3f}s"
    )
