from __future__ import annotations

import csv
import io
import json
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum import experiment, rouge
from persum.cli import main
from persum.corpus import Corpus, GoldSummary, ParseError, SpeakerRole, Split, make_dialog, write_corpus
from persum.experiment import (
    PER_DIALOG_COLUMNS,
    ConfigPaths,
    ExperimentConfig,
    ExperimentError,
    MissingCellsError,
    ResultTable,
    Runs,
    emit_report,
    format_cell,
    load_config_file,
    parse_config,
    rate_curve,
    rate_curve_csv,
    read_per_dialog_csv,
    run_experiment,
    sample_nested_subsets,
    table_from_per_dialog,
    write_per_dialog_csv,
    write_subset_files,
)
from persum.rouge import AggregateCell, TokenizerConfig, score_pair
from persum.summarize import (
    CandidateSummary,
    Perspective,
    PredictionEntry,
    PredictionSet,
    PrefixConfig,
    builtin_candidate,
    parse_builtin_method,
)
from persum.weaklabel import select_target
from util import dump_rows, naive_read_dump, naive_run_experiment, naive_undecodable_byte, piped, synthetic_corpus

C = SpeakerRole.CUSTOMER
A = SpeakerRole.AGENT


# --- nested subsets -----------------------------------------------------------


def ids(n):
    return [f"d{i:04d}" for i in range(n)]


def test_subsets_are_prefixes():
    family = sample_nested_subsets(ids(100), [16, 32], seed=1)
    assert family.subsets[16] == family.subsets[32][:16]
    assert len(family.subsets[32]) == 32


def test_subsets_size_zero_is_empty():
    family = sample_nested_subsets(ids(10), [0, 4], seed=0)
    assert family.subsets[0] == []


def test_subsets_oversized_request_errors():
    with pytest.raises(ExperimentError, match="2048"):
        sample_nested_subsets(ids(880), [2048], seed=0)


def test_subsets_cap_to_population():
    family = sample_nested_subsets(ids(880), [512, 1024], seed=0, cap_to_population=True)
    assert len(family.subsets[1024]) == 880
    assert family.subsets[512] == family.subsets[1024][:512]
    assert sorted(family.subsets[1024]) == ids(880)


def test_nesting_invariant_every_seed_and_size_pair():
    sizes = [16, 32, 64, 128, 256, 512]
    population = ids(600)
    for seed in range(5):
        family = sample_nested_subsets(population, sizes, seed)
        for small, large in zip(sizes, sizes[1:]):
            assert family.subsets[large][: small] == family.subsets[small]
        assert len(set(family.subsets[sizes[-1]])) == sizes[-1]


def test_subset_files_reproducible(tmp_path):
    sizes = [0, 8, 16]
    families = [sample_nested_subsets(ids(40), sizes, seed) for seed in range(3)]
    write_subset_files(families, tmp_path / "a")
    write_subset_files(families, tmp_path / "b")
    for seed in range(3):
        for size in sizes:
            a = (tmp_path / "a" / str(seed) / f"{size}.txt").read_bytes()
            b = (tmp_path / "b" / str(seed) / f"{size}.txt").read_bytes()
            assert a == b


# --- experiment runs -------------------------------------------------------------


def scoring_corpus(n=10, n_test=2, seed=1):
    rand = random.Random(seed)
    corpus = synthetic_corpus(rand, n, with_gold=True)
    split = {}
    for pos, d in enumerate(corpus.dialogs):
        if pos < n - n_test - 1:
            split[d.id] = Split.TRAIN
        elif pos < n - n_test:
            split[d.id] = Split.VALIDATION
        else:
            split[d.id] = Split.TEST
    corpus = corpus._replace(split=split)
    corpus.validate()
    return corpus


def test_base_method_cells_identical_across_sizes():
    corpus = scoring_corpus()
    config = ExperimentConfig(
        methods=["lead_base"], perspectives=[Perspective.CUSTOMER], sizes=(0, 4), n_seeds=3
    )
    result = run_experiment(corpus, config)
    for variant in ("rouge1", "rouge2", "rougeL"):
        cells = result.table.rows[("lead_base", Perspective.CUSTOMER, variant)]
        assert cells[0] == cells[4]
        assert cells[0].deviation == 0.0
        assert cells[0].n_runs == 3


def test_single_seed_has_zero_deviation():
    corpus = scoring_corpus()
    config = ExperimentConfig(
        methods=["long_post_process_base"], perspectives=[Perspective.AGENT], sizes=(0,), n_seeds=1
    )
    result = run_experiment(corpus, config)
    for cells in result.table.rows.values():
        assert all(cell.deviation == 0.0 for cell in cells.values())


def prediction_set(corpus, method, size, seed, vary=""):
    entries = {}
    for did in corpus.dialog_ids(Split.TEST):
        gold = corpus.gold[did]
        entries[did] = PredictionEntry(f"{gold.customer_part}{vary}", f"{gold.agent_part}{vary}")
    return PredictionSet(method=method, training_size=size, seed=seed, entries=entries)


def test_external_method_five_seed_aggregation():
    corpus = scoring_corpus(n=25)
    config = ExperimentConfig(
        methods=["pegasus"], perspectives=[Perspective.CUSTOMER], sizes=(16,), n_seeds=5
    )
    external = [
        prediction_set(corpus, "pegasus", 16, seed, vary=" extra" * seed) for seed in range(5)
    ]
    result = run_experiment(corpus, config, external)
    cell = result.table.rows[("pegasus", Perspective.CUSTOMER, "rouge1")][16]
    assert cell.n_runs == 5
    assert cell.deviation > 0.0
    assert cell.mean < 1.0


def test_external_missing_cells_listed():
    corpus = scoring_corpus(n=25)
    config = ExperimentConfig(
        methods=["pegasus"], perspectives=[Perspective.CUSTOMER], sizes=(0, 16), n_seeds=2
    )
    external = [prediction_set(corpus, "pegasus", 16, 0)]
    with pytest.raises(MissingCellsError) as exc_info:
        run_experiment(corpus, config, external)
    assert set(exc_info.value.cells) == {
        ("pegasus", 0, 0),
        ("pegasus", 0, 1),
        ("pegasus", 16, 1),
    }


def test_missing_cells_message_lists_ten_and_counts_the_rest():
    corpus = scoring_corpus(n=25)
    config = ExperimentConfig(
        methods=["pegasus", "bart"], perspectives=[Perspective.CUSTOMER], n_seeds=5, cap_to_population=True
    )
    with pytest.raises(MissingCellsError) as exc_info:
        run_experiment(corpus, config)
    error = exc_info.value
    assert len(error.cells) == 80
    listed = ", ".join(f"({m}, size={s}, seed={k})" for m, s, k in error.cells[:10])
    assert str(error) == f"missing prediction cells: {listed}, … and 70 more"


def test_missing_cells_message_lists_all_of_ten_or_fewer():
    cells = [("pegasus", 0, seed) for seed in range(10)]
    assert "more" not in str(MissingCellsError(cells))
    assert str(MissingCellsError(cells[:1])) == "missing prediction cells: (pegasus, size=0, seed=0)"


def test_missing_prediction_entry_excluded_with_warning():
    corpus = scoring_corpus()
    test_ids = corpus.dialog_ids(Split.TEST)
    pred = prediction_set(corpus, "pegasus", 0, 0)
    del pred.entries[test_ids[0]]
    config = ExperimentConfig(
        methods=["pegasus"], perspectives=[Perspective.CUSTOMER], sizes=(0,), n_seeds=1
    )
    warnings = ["before the run"]
    result = run_experiment(corpus, config, [pred], warnings)
    assert result.warnings is warnings
    assert warnings == ["before the run", f"pegasus/customer: no prediction for dialog {test_ids[0]} (size=0, seed=0)"]
    scored = {row[0] for row in dump_rows(result.runs)}
    assert test_ids[0] not in scored

    strict = ExperimentConfig(
        methods=["pegasus"],
        perspectives=[Perspective.CUSTOMER],
        sizes=(0,),
        n_seeds=1,
        strict_missing=True,
    )
    with pytest.raises(ExperimentError):
        run_experiment(corpus, strict, [pred])


def test_prediction_sets_for_unrequested_cells_warned_in_one_line():
    corpus = scoring_corpus()
    config = ExperimentConfig(methods=["pegasus"], perspectives=[Perspective.CUSTOMER], sizes=(0,), n_seeds=1)
    requested = [prediction_set(corpus, "pegasus", 0, 0)]
    clean = run_experiment(corpus, config, requested)
    assert clean.warnings == []
    # an unconfigured size, an unconfigured seed, a built-in name and an unlisted method
    extra = [prediction_set(corpus, *cell, vary=" x") for cell in
             [("pegasus", 16, 0), ("pegasus", 0, 3), ("lead_base", 0, 0), ("bart", 0, 0)]]
    result = run_experiment(corpus, config, extra[:1] + requested + extra[1:])
    assert result.warnings == [
        "4 prediction set(s) are for cells the config does not request and are not scored, "
        "first: (pegasus, size=16, seed=0)"
    ]
    assert list(dump_rows(result.runs)) == list(dump_rows(clean.runs))


def test_prediction_entries_for_unscored_dialogs_warned_in_one_line():
    corpus = scoring_corpus()
    train_ids = corpus.dialog_ids(Split.TRAIN)
    config = ExperimentConfig(methods=["pegasus"], perspectives=[Perspective.CUSTOMER], sizes=(0, 16), n_seeds=1,
                              cap_to_population=True)
    external = [prediction_set(corpus, "pegasus", size, 0) for size in (0, 16)]
    clean = run_experiment(corpus, config, external)
    assert clean.warnings == []
    for pred in external:
        pred.entries.update({did: PredictionEntry("stray text", None) for did in train_ids[:3]})
    pred.entries["nowhere"] = PredictionEntry("stray text", None)
    result = run_experiment(corpus, config, external)
    assert result.warnings == [
        f"7 prediction entry(ies) are for dialogs that are not scored, first: dialog {train_ids[0]!r} "
        "in (pegasus, size=0, seed=0)"
    ]
    assert list(dump_rows(result.runs)) == list(dump_rows(clean.runs))


@pytest.mark.parametrize("failure", ["duplicate-cell", "missing-cells", "strict-missing", "nothing-scored"])
def test_run_failing_after_warnings_leaves_them_in_the_callers_list(failure):
    corpus = scoring_corpus()
    test_ids, train_ids = corpus.dialog_ids(Split.TEST), corpus.dialog_ids(Split.TRAIN)
    pred = prediction_set(corpus, "pegasus", 0, 0)
    config = ExperimentConfig(
        methods=["pegasus"], perspectives=[Perspective.CUSTOMER], sizes=(0,), n_seeds=1
    )
    external = [pred]
    if failure == "duplicate-cell":
        del corpus.gold[test_ids[0]]
        external = [pred, pred]
        expected = ["1 test dialog(s) have no gold summary and are not scored"]
        error = "duplicate prediction set for cell ('pegasus', 0, 0)"
    elif failure == "missing-cells":
        config = config._replace(n_seeds=2)
        external = [pred, prediction_set(corpus, "bart", 0, 0)]
        expected = [
            "1 prediction set(s) are for cells the config does not request and are not scored, "
            "first: (bart, size=0, seed=0)"
        ]
        error = "missing prediction cells: (pegasus, size=0, seed=1)"
    elif failure == "strict-missing":
        config = config._replace(strict_missing=True)
        del pred.entries[test_ids[0]]
        pred.entries[train_ids[0]] = PredictionEntry("stray text", None)
        expected = [
            f"1 prediction entry(ies) are for dialogs that are not scored, first: dialog {train_ids[0]!r} "
            "in (pegasus, size=0, seed=0)"
        ]
        error = f"pegasus/customer: no prediction for dialog {test_ids[0]} (size=0, seed=0)"
    else:
        pred.entries.clear()
        expected = [f"pegasus/customer: no prediction for dialog {did} (size=0, seed=0)" for did in test_ids]
        expected.append("pegasus/customer: no dialog scored at size=0, seed=0")
        error = "no dialog scored in any cell"
    warnings = ["before the run"]
    with pytest.raises(ExperimentError) as exc_info:
        run_experiment(corpus, config, external, warnings)
    assert str(exc_info.value) == error
    assert warnings == ["before the run", *expected]


def test_missing_predictions_are_named_in_perspective_size_seed_dialog_order(tmp_path):
    """Cells are scored one at a time, each for every perspective, yet the first missing
    dialog and the warnings come in perspective, size, seed, dialog order, as the naive
    oracle gives them: the later cell's missing entry (customer perspective) comes before
    the earlier cell's blank agent side."""
    corpus = scoring_corpus(n=12, n_test=3)
    first, second, _ = corpus.dialog_ids(Split.TEST)
    config = ExperimentConfig(methods=["pegasus"], perspectives=list(Perspective), sizes=(0, 4), n_seeds=1)
    early, late = prediction_set(corpus, "pegasus", 0, 0), prediction_set(corpus, "pegasus", 4, 0)
    early.entries[first] = early.entries[first]._replace(agent="  ")
    del late.entries[second]
    result = run_experiment(corpus, config, [early, late])
    _, dump, warnings = naive_run_experiment(corpus, config, [early, late])
    assert result.warnings == warnings == [
        f"pegasus/customer: no prediction for dialog {second} (size=4, seed=0)",
        f"pegasus/agent: no prediction for dialog {first} (size=0, seed=0)",
        f"pegasus/agent: no prediction for dialog {second} (size=4, seed=0)",
        f"pegasus/full: no prediction for dialog {second} (size=4, seed=0)",
    ]
    write_per_dialog_csv(result.runs, tmp_path / "dump.csv")
    assert (tmp_path / "dump.csv").read_text(encoding="utf-8") == dump
    strict = config._replace(strict_missing=True)
    with pytest.raises(ExperimentError) as exc_info:
        run_experiment(corpus, strict, [early, late])
    assert str(exc_info.value) == naive_run_experiment(corpus, strict, [early, late])[0] == warnings[0]


@pytest.mark.parametrize("perspectives", [list(Perspective), [Perspective.CUSTOMER], [Perspective.FULL, Perspective.AGENT]])
def test_each_prediction_side_is_tokenized_once_per_cell(perspectives):
    """tokenize runs once per prepared reference and once per non-blank prediction side that
    a perspective asks for, in each cell, and score_pair once per scored pair."""
    corpus = scoring_corpus(n=12, n_test=3)
    test_ids = corpus.dialog_ids(Split.TEST)
    config = ExperimentConfig(methods=["pegasus_post_process"], perspectives=perspectives, sizes=(0, 4), n_seeds=2)
    external = [prediction_set(corpus, "pegasus_post_process", size, seed) for size in (0, 4) for seed in (0, 1)]
    external[0].entries[test_ids[0]] = PredictionEntry(None, "only the agent")
    external[1].entries[test_ids[1]] = PredictionEntry(" ", "?!")
    del external[2].entries[test_ids[2]]
    roles = {role for perspective in perspectives for role in perspective.roles}
    sides = sum(text is not None and bool(text.strip())
                for pred in external for entry in pred.entries.values()
                for role, text in ((C, entry.customer), (A, entry.agent)) if role in roles)
    with mock.patch.object(rouge, "tokenize", wraps=rouge.tokenize) as counted, \
            mock.patch.object(experiment, "tokenize", counted), \
            mock.patch.object(experiment, "score_pair", wraps=experiment.score_pair) as scored:
        result = run_experiment(corpus, config, external)
    assert counted.call_count == len(perspectives) * len(test_ids) + sides
    assert scored.call_count == len(list(dump_rows(result.runs)))


@pytest.mark.parametrize(
    "method,perspectives",
    [("lead_post_process_base", list(Perspective)), ("lead_base", [Perspective.CUSTOMER]),
     ("long_base", [Perspective.FULL, Perspective.AGENT]), ("lead_long_post_process_base", list(Perspective)),
     ("long_lead_base", [Perspective.FULL])],
)
def test_each_builtin_side_is_tokenized_once_per_dialog(method, perspectives):
    """A built-in method's output is one prediction entry per dialog, scored once for every
    perspective it applies to and every (size, seed) cell: tokenize runs once per prepared
    reference and once per side its heuristics select (a two-sided method's both or neither),
    and score_pair once per (applicable perspective, scored dialog), not once per dump row."""
    corpus = scoring_corpus(n=20, n_test=8)
    dialogs, test_ids = corpus.by_id(), corpus.dialog_ids(Split.TEST)
    spec = parse_builtin_method(method)
    applicable = [perspective for perspective in perspectives if spec.applies_to(perspective)]
    heuristics = {C: spec.customer_heuristic, A: spec.agent_heuristic}
    found = {did: {role for perspective in applicable for role in perspective.roles
                   if select_target(dialogs[did], role, heuristics[role], 9) is not None} for did in test_ids}
    sides = sum(len(roles) for roles in found.values() if not spec.two_sided or len(roles) == 2)
    pairs = sum(set(perspective.roles) <= found[did] for perspective in applicable for did in test_ids)
    assert "lead" not in method or pairs < len(applicable) * len(test_ids)  # a dialog lacks a 9-token turn
    config = ExperimentConfig(methods=[method], perspectives=perspectives, sizes=(0, 4), n_seeds=2, min_tokens=9)
    with mock.patch.object(rouge, "tokenize", wraps=rouge.tokenize) as counted, \
            mock.patch.object(experiment, "tokenize", counted), \
            mock.patch.object(experiment, "score_pair", wraps=experiment.score_pair) as scored:
        result = run_experiment(corpus, config)
    assert counted.call_count == len(perspectives) * len(test_ids) + sides
    assert scored.call_count == pairs
    assert len(list(dump_rows(result.runs))) == 4 * pairs


def test_incompatible_builtin_rows_skipped_with_warning():
    corpus = scoring_corpus()
    config = ExperimentConfig(
        methods=["lead_base", "lead_long_base"],
        perspectives=[Perspective.CUSTOMER, Perspective.FULL],
        sizes=(0,),
        n_seeds=1,
    )
    result = run_experiment(corpus, config)
    assert ("lead_base", Perspective.CUSTOMER, "rouge1") in result.table.rows
    assert ("lead_long_base", Perspective.FULL, "rouge1") in result.table.rows
    assert ("lead_base", Perspective.FULL, "rouge1") not in result.table.rows
    assert ("lead_long_base", Perspective.CUSTOMER, "rouge1") not in result.table.rows
    assert any("not applicable" in w for w in result.warnings)
    # a method that applies to no requested perspective is not scored at all
    config = config._replace(methods=["lead_long_base", "lead_base"], perspectives=[Perspective.CUSTOMER])
    result = run_experiment(corpus, config)
    assert result.warnings == ["lead_long_base: not applicable to the customer perspective, row skipped"]
    assert list(result.runs) == [("lead_base", Perspective.CUSTOMER, 0, 0)]


def test_run_requires_gold_and_split():
    corpus = scoring_corpus()
    config = ExperimentConfig(methods=["lead_base"], perspectives=[Perspective.CUSTOMER], sizes=(0,))
    no_gold = Corpus(corpus.dialogs, gold=None, split=corpus.split)
    with pytest.raises(ExperimentError, match="gold"):
        run_experiment(no_gold, config)
    no_split = Corpus(corpus.dialogs, gold=corpus.gold, split=None)
    with pytest.raises(ExperimentError, match="split"):
        run_experiment(no_split, config)


def test_oversized_sizes_error_without_cap_flag(tmp_path):
    corpus = scoring_corpus()
    config = ExperimentConfig(
        methods=["lead_base"], perspectives=[Perspective.CUSTOMER], sizes=(0, 1024)
    )
    with pytest.raises(ExperimentError, match="subset size 1024 exceeds the 7-id training population"):
        run_experiment(corpus, config)
    # capped, the 1024 subset that `persum subsets` writes is the whole training set
    corpus_path, out = tmp_path / "corpus.jsonl", tmp_path / "subsets"
    write_corpus(corpus, corpus_path)
    argv = ["subsets", "--corpus", str(corpus_path), "--sizes", "0,1024", "--seeds", "1", "--cap-to-population",
            "--output-dir", str(out)]
    assert main(argv) == 0
    written = (out / "0" / "1024.txt").read_text(encoding="utf-8").splitlines()
    assert sorted(written) == sorted(corpus.dialog_ids(Split.TRAIN))


def test_run_deterministic():
    corpus = scoring_corpus()
    config = ExperimentConfig(
        methods=["lead_post_process_base"],
        perspectives=[Perspective.CUSTOMER, Perspective.AGENT],
        sizes=(0, 4),
        n_seeds=2,
    )
    first = run_experiment(corpus, config)
    second = run_experiment(corpus, config)
    assert first.table == second.table
    assert list(dump_rows(first.runs)) == list(dump_rows(second.runs))


def test_aggregation_consistent_with_per_dialog_dump(tmp_path):
    corpus = scoring_corpus(n=12, n_test=3)
    config = ExperimentConfig(
        methods=["lead_base", "long_post_process_base"],
        perspectives=[Perspective.CUSTOMER, Perspective.AGENT],
        sizes=(0, 4),
        n_seeds=3,
    )
    result = run_experiment(corpus, config)
    path = tmp_path / "per_dialog_scores.csv"
    write_per_dialog_csv(result.runs, path)
    recomputed = table_from_per_dialog(read_per_dialog_csv(path))
    # one reducer and repr floats in the dump: the round trip is exact
    assert recomputed == result.table


# --- per-dialog dump round trip -----------------------------------------------------


def plain_dump(rows) -> str:
    """The dump as a writer that formats every field of every row would write it,
    rows in the order the runs structure yields them. Fields are quoted as for "\r\n"
    line ends, so that a lone "\r" is quoted too, and each line ends in "\n"."""
    lines = []
    for fields in [PER_DIALOG_COLUMNS, *([*row[:2], row[2].value, *row[3:5], *map(repr, row[5:])] for row in rows)]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def exact(rows):
    """Rows with scores as their repr, so that 0.0 and -0.0 differ."""
    return [(*row[:5], *map(repr, row[5:])) for row in rows]


def runs_of(rows) -> Runs:
    """The runs holding `rows`, grouped by run in order of first appearance."""
    runs: Runs = {}
    for row in rows:
        runs.setdefault(row[1:5], {})[row[0]] = row[5:]
    return runs


def assert_round_trip(runs, path):
    write_per_dialog_csv(runs, path)
    assert path.read_text(encoding="utf-8") == plain_dump(dump_rows(runs))
    read = read_per_dialog_csv(path)
    assert list(read) == list(runs)
    assert list(dump_rows(read)) == list(dump_rows(runs))
    assert exact(dump_rows(read)) == exact(dump_rows(runs))
    return read


C_, A_ = Perspective.CUSTOMER, Perspective.AGENT


def test_dump_round_trip_scores_repeated_across_cells(tmp_path):
    corpus = scoring_corpus(n=12, n_test=3)
    config = ExperimentConfig(methods=["lead_base"], perspectives=[C_], sizes=(0, 4), n_seeds=3)
    runs = run_experiment(corpus, config).runs
    assert len(list(dump_rows(runs))) == 3 * 2 * 3
    read = assert_round_trip(runs, tmp_path / "dump.csv")
    # a dialog's rows share the floats of its first row, as run_experiment's rows do
    first = {}
    for row in dump_rows(read):
        assert all(a is b for a, b in zip(row[5:], first.setdefault(row[0], row)[5:]))


def test_dump_round_trip_scores_change_between_cells(tmp_path):
    high = (0.5, 0.25, 1 / 3, 0.125, 0.2)
    low = (0.0, 0.0, 0.0, 0.0, 0.0)
    rows = [
        ("d1", "pegasus", C_, 0, 0, *high),
        ("d1", "pegasus", C_, 0, 1, *high),
        ("d1", "pegasus", C_, 16, 0, *low),  # a stale reuse would repeat `high`
        ("d1", "pegasus", C_, 16, 1, -0.0, *low[1:]),  # equal to `low`, other text
        ("d1", "pegasus", C_, 32, 0, *low),
        ("d1", "pegasus", C_, 32, 1, *high),
        ("d1", "pegasus", C_, 64, 0, *high[:4], 0.75),  # one column changes
    ]
    assert_round_trip(runs_of(rows), tmp_path / "dump.csv")


@pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)], ids=["zero-then-negative", "negative-then-zero"])
def test_dump_writes_each_zero_as_it_is(tmp_path, first, second):
    """0.0 and -0.0 are equal and hash alike, so a writer that formats each distinct
    value once must not hand one the other's text: within one scores dict, and across runs."""
    one_dict = {"d1": (first, second, first, 0.5, second), "d2": (second, first, 0.5, second, first)}
    runs = {("pegasus", C_, 0, 0): one_dict}
    assert_round_trip(runs, tmp_path / "one.csv")
    runs = {("pegasus", C_, 0, 0): {"d1": (first,) * 5}, ("pegasus", C_, 0, 1): {"d1": (second,) * 5}}
    assert_round_trip(runs, tmp_path / "two.csv")
    lines = (tmp_path / "two.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1:] == [f"d1,pegasus,customer,0,{seed},{','.join([repr(zero)] * 5)}" for seed, zero in enumerate((first, second))]


def test_dump_writes_equal_floats_and_a_shared_float_with_their_repr(tmp_path):
    """Floats that are equal but distinct objects, and one float object in every row."""
    third, shared = 1 / 3, 0.1 + 0.2
    equal = float(repr(third))
    assert equal == third and equal is not third
    runs = {
        ("pegasus", C_, 0, seed): {f"d{i}": (third, equal, shared, shared, 1 - equal) for i in range(50)}
        for seed in range(3)
    }
    assert_round_trip(runs, tmp_path / "dump.csv")
    assert (tmp_path / "dump.csv").read_text(encoding="utf-8").count("0.30000000000000004") == 3 * 50 * 2


def test_dump_round_trip_methods_and_perspectives_interleaved(tmp_path):
    a = (0.5, 0.5, 0.5, 0.25, 0.5)
    b = (0.75, 0.5, 0.6, 0.3, 0.55)
    rows = []
    for seed in range(2):
        for did in ("d1", "d2"):
            rows += [
                (did, "lead_base", C_, 0, seed, *a),
                (did, "long_base", A_, 0, seed, *b),
                (did, "pegasus", C_, 0, seed, *(b if seed else a)),
                (did, 'odd, "quoted" method', A_, 0, seed, *a),
            ]
    assert_round_trip(runs_of(rows), tmp_path / "dump.csv")


ROW = "d1,pegasus,customer,0,0,0.5,0.5,0.5,0.25,0.5\n"


@pytest.mark.parametrize(
    "row, complaint",
    [
        ("d1,pegasus,customer,0,1,0.5,0.5,0.5,1.5,0.5\n", "r2_f: '1.5' is not a score in [0, 1]"),
        ("d1,pegasus,customer,0,1,0.5,0.5,0.5,abc,0.5\n", "r2_f: could not convert string to float: 'abc'"),
        ("d1,pegasus,customer,0,1,0.5,0.5,0.5,0.25,0.5,0.5\n", "per-dialog dump row has 11 field(s), the header has 10"),
        ("d1,pegasus,speaker,0,1,0.5,0.5,0.5,0.25,0.5\n", "perspective: 'speaker' is not a valid Perspective"),
        ("d1,pegasus,customer,x,1,0.5,0.5,0.5,0.25,0.5\n", "size: invalid literal for int()"),
        ("d1,pegasus,customer,0,1.0,0.5,0.5,0.5,0.25,0.5\n", "seed: invalid literal for int()"),
    ],
    ids=["out-of-range", "non-numeric", "extra-field", "bad-perspective", "bad-size", "bad-seed"],
)
def test_dump_row_after_its_dialog_is_checked_on_its_own(tmp_path, row, complaint):
    path = tmp_path / "dump.csv"
    path.write_text(plain_dump([]) + ROW + ROW.replace(",0,0,", ",16,0,") + row, encoding="utf-8")
    with pytest.raises(ParseError) as exc_info:
        read_per_dialog_csv(path)
    assert str(exc_info.value).startswith(f"{path}, line 4: {complaint}")


SCORE_POOL = (0.0, -0.0, 1.0, 0.5, 1 / 3, 0.1 + 0.2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["d1", "d2", "d,3"]),
            st.sampled_from(["lead_base", "pegasus"]),
            st.sampled_from(list(Perspective)),
            st.integers(0, 2),
            st.one_of(st.none(), st.lists(st.sampled_from(SCORE_POOL), min_size=5, max_size=5)),
        ),
        max_size=30,
    )
)
def test_dump_round_trip_property(tmp_path_factory, draws):
    """None repeats the dialog's last score tuple object, as a copy across cells does."""
    rows, last = [], {}
    for cell, (did, method, perspective, seed, scores) in enumerate(draws):
        scores = last.get(did, SCORE_POOL[:5]) if scores is None else tuple(scores)
        last[did] = scores
        rows.append((did, method, perspective, cell, seed, *scores))
    path = tmp_path_factory.mktemp("dump") / "dump.csv"
    write_per_dialog_csv(runs_of(rows), path)
    assert path.read_text(encoding="utf-8") == plain_dump(rows)
    assert exact(dump_rows(read_per_dialog_csv(path))) == exact(rows)


# csv's special characters, spaces at either end, and the empty string
FIELD_TEXT = st.text(st.sampled_from(["a", "b", "é", ",", '"', "\n", "\r", " "]), max_size=6)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            FIELD_TEXT,  # method
            st.sampled_from(list(Perspective)),
            st.integers(0, 1),  # seed
            st.one_of(
                st.integers(0, 50),  # share the scores dict of an earlier run
                st.dictionaries(FIELD_TEXT, st.lists(st.sampled_from(SCORE_POOL), min_size=5, max_size=5), max_size=4),
            ),
        ),
        max_size=12,
    )
)
def test_dump_writer_equals_csv_writer_on_awkward_fields(tmp_path_factory, draws):
    """Runs keyed by their draw index, so that every draw is its own run; an integer
    shares the scores dict of an earlier run, as a built-in method's runs do."""
    runs, dicts = {}, []
    for cell, (method, perspective, seed, scores) in enumerate(draws):
        if isinstance(scores, int):
            if not dicts:
                continue
            scores = dicts[scores % len(dicts)]
        else:
            scores = {did: tuple(row_scores) for did, row_scores in scores.items()}
            if not scores:
                continue  # a run with no scored dialog is not stored
            dicts.append(scores)
        runs[(method, perspective, cell, seed)] = scores
    rows = list(dump_rows(runs))
    path = tmp_path_factory.mktemp("dump") / "dump.csv"
    write_per_dialog_csv(runs, path)
    assert path.read_bytes().decode("utf-8") == plain_dump(rows)  # no newline translation
    read = read_per_dialog_csv(path)
    assert list(read) == list(runs)
    assert list(dump_rows(read)) == rows
    assert exact(dump_rows(read)) == exact(rows)


# --- the block reader against the row-by-row oracle ---------------------------------

KEY_TEXT = st.tuples(
    st.sampled_from(["lead_base", "pegasus"]),
    st.sampled_from(["customer", "agent"]),
    st.sampled_from(["0", "1", "01"]),  # "01" and "1" name one run
    st.sampled_from(["0", "1"]),
)
SCORE_TEXT = st.sampled_from(["0.5", "0.50", "5e-1", "0.0", "-0.0", "1", "1.0", "0.25", "1e-3", "0.30000000000000004"])
DIALOG_ID = st.sampled_from(["d1", "d2", "d3", "d,4"])


def dump_blocks(key_text, row):
    """Blocks of rows with one key text; None copies the rows of the last block of the
    same (method, perspective), so that its run may share that block's scores."""
    return st.lists(st.tuples(key_text, st.one_of(st.none(), st.lists(row, min_size=1, max_size=4))), max_size=12)


def rows_of_blocks(blocks) -> list[list[str]]:
    rows, last = [], {}
    for key_text, block_rows in blocks:
        block_rows = last.get(key_text[:2], []) if block_rows is None else block_rows
        last[key_text[:2]] = block_rows
        rows += [[did, *key_text, *scores] for did, scores in block_rows]
    return rows


# the rows that end in CR LF, the rows with a blank line before them (LF or CR LF), and
# whether the last line ends
DUMP_LAYOUT = st.tuples(st.sets(st.integers(0, 48)), st.dictionaries(st.integers(0, 48), st.sampled_from(["\n", "\r\n"])), st.booleans())


def write_dump_rows(path, rows, layout=((), {}, True)) -> None:
    crlf, blanks, last_ends = layout
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(PER_DIALOG_COLUMNS)
    for pos, row in enumerate(rows):
        buf.write(blanks.get(pos, ""))
        csv.writer(buf, lineterminator="\r\n" if pos in crlf else "\n").writerow(row)
    text = buf.getvalue()
    path.write_text(text if last_ends else text.removesuffix("\n").removesuffix("\r"), encoding="utf-8", newline="")


def read_outcome(reader, path):
    """The runs `reader` reads from `path`, each run's key with its rows as (dialog id,
    score reprs) in dump order, or the text of the ParseError it raises."""
    try:
        runs = reader(path)
    except ParseError as exc:
        return str(exc)
    return [(key, [(did, tuple(map(repr, s))) for did, s in scores.items()]) for key, scores in runs.items()]


@settings(max_examples=150, deadline=None)
@given(dump_blocks(KEY_TEXT, st.tuples(DIALOG_ID, st.lists(SCORE_TEXT, min_size=5, max_size=5))), DUMP_LAYOUT)
def test_block_reader_equals_row_by_row_reader_on_valid_dumps(tmp_path_factory, blocks, layout):
    """Shared, re-opened and row-interleaved runs, with LF or CR LF line ends, blank lines
    and a last line that may not end; a row that would repeat its dialog in its run is left
    out."""
    rows, seen = [], set()
    for row in rows_of_blocks(blocks):
        run_dialog = (*row[1:3], int(row[3]), int(row[4]), row[0])
        if run_dialog not in seen:
            seen.add(run_dialog)
            rows.append(row)
    path = tmp_path_factory.mktemp("dump") / "dump.csv"
    write_dump_rows(path, rows, layout)
    want = read_outcome(naive_read_dump, path)
    assert not isinstance(want, str)
    assert read_outcome(read_per_dialog_csv, path) == want


FAULTY_KEY_TEXT = st.tuples(
    st.sampled_from(["lead_base", "pegasus"]),
    st.sampled_from(["customer", "agent", "speaker"]),
    st.sampled_from(["0", "1", "01", "x"]),
    st.sampled_from(["0", "1"]),
)
FAULTY_SCORE_TEXT = st.one_of(SCORE_TEXT, SCORE_TEXT, st.sampled_from(["1.5", "-0.5", "nan", "inf", "-inf", "abc", ""]))
FAULTY_SCORES = st.one_of(*[st.lists(FAULTY_SCORE_TEXT, min_size=5, max_size=5)] * 3, st.lists(SCORE_TEXT, min_size=3, max_size=6))


@settings(max_examples=200, deadline=None)
@given(dump_blocks(FAULTY_KEY_TEXT, st.tuples(DIALOG_ID, FAULTY_SCORES)), DUMP_LAYOUT)
def test_block_reader_names_the_fault_the_row_by_row_reader_names(tmp_path_factory, blocks, layout):
    """Out-of-range, NaN, infinite and non-numeric scores, bad keys, repeated dialogs and
    rows of the wrong width, anywhere in shared, re-opened and interleaved runs, laid out
    as in the test above."""
    path = tmp_path_factory.mktemp("dump") / "dump.csv"
    write_dump_rows(path, rows_of_blocks(blocks), layout)
    assert read_outcome(read_per_dialog_csv, path) == read_outcome(naive_read_dump, path)


GOOD = "0.5,0.5,0.5,0.25,0.5"


def run_rows(key, dids, scores=GOOD) -> str:
    return "".join(f"{did},pegasus,customer,{key},{scores}\n" for did in dids)


@pytest.mark.parametrize(
    "body, line, complaint",
    [
        (run_rows("0,0", ["d1"]) + "d2,pegasus,customer,0,0,0.5,0.5,1.5,0.25,0.5\nd3,pegasus,customer,0,0,0.5,0.5,0.5\n",
         3, "r1_f: '1.5' is not a score in [0, 1]"),
        (run_rows("0,0", ["d1"]) + "d2,pegasus,customer,0,0,0.5,0.5,0.5,0.25,abc\n" + "d3,pegasus,customer,0,0," + "9" * 131_073 + "\n",
         3, "rl_f: could not convert string to float: 'abc'"),
        (run_rows("0,0", ["d1"]) + run_rows("0,0", ["d2"], "0.5,nan,0.5,0.25,0.5"), 3, "r1_r: 'nan' is not a score in [0, 1]"),
        (run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1"], "0.5,0.5,0.5,0.25,nan"), 4, "rl_f: 'nan' is not a score in [0, 1]"),
        (run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + run_rows("00,1", ["d3", "d2"]),
         7, "dialog 'd2' repeats in run (pegasus, customer, size=00, seed=1)"),
        (run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + run_rows("0,0", ["d3", "d2", "d4"], "0.5,0.5,0.5,0.25,inf"),
         6, "rl_f: 'inf' is not a score in [0, 1]"),
        *(
            (run_rows("0,0", ["d1", "d2"]) + run_rows("0,0", ["d3"], f"0.5,0.5,{bad},0.25,0.5") + run_rows("0,0", ["d4"])
             + run_rows("0,0", ["d5"], f"{bad},0.5,0.5,0.25,0.5"), 4, f"r1_f: {complaint}")
            for bad, complaint in (("1.5", "'1.5' is not a score in [0, 1]"), ("abc", "could not convert string to float: 'abc'"))
        ),
    ],
    ids=[
        "then-a-short-row", "then-a-csv-error", "nan-in-a-column", "nan-in-a-shared-text", "repeat-in-reopened-shared-run",
        "fault-before-repeat", "out-of-range-on-two-lines", "non-numeric-on-two-lines",
    ],
)
def test_block_reader_names_the_first_faulty_row_in_file_order(tmp_path, body, line, complaint):
    path = tmp_path / "dump.csv"
    path.write_text(plain_dump([]) + body, encoding="utf-8")
    got = read_outcome(read_per_dialog_csv, path)
    assert got == read_outcome(naive_read_dump, path)
    assert got.startswith(f"{path}, line {line}: {complaint}")


@pytest.mark.parametrize(
    "texts",
    [
        ["0.5,0.50,5e-1,0.25,0.5", "5e-1,0.5,0.50,0.25,0.50"],  # equal values of other texts
        ["0.0,0.0,0.0,0.0,0.0", "-0.0,0.0,-0.0,0.0,-0.0", "0.0,-0.0,0.0,-0.0,0.0"],  # a zero's sign
        [GOOD, "0.25,0.5,0.5,0.5,0.25", "0.5,0.25,0.5,0.5,0.5", GOOD, "0.25,0.5,0.5,0.5,0.25"],  # repeats apart
    ],
    ids=["equal-values", "signed-zeros", "non-adjacent-repeats"],
)
def test_dump_score_texts_read_as_the_row_by_row_reader_reads_them(tmp_path, texts):
    path = tmp_path / "dump.csv"
    path.write_text(plain_dump([]) + "".join(run_rows("0,0", [f"d{i}"], t) for i, t in enumerate(texts)), encoding="utf-8")
    assert exact(dump_rows(read_per_dialog_csv(path))) == exact(dump_rows(naive_read_dump(path)))


def test_block_reader_names_a_faulty_row_before_an_undecodable_byte_of_its_run(tmp_path):
    """The bad byte lies past the 8 KiB that a text decoder reads at once, after the faulty
    row: each line is decoded as it is read, so that row's fault is the one named."""
    path = tmp_path / "dump.csv"
    rows = run_rows("0,0", [f"d{i}" for i in range(100)]) + run_rows("0,0", ["d100"], "0.5,-0.5,0.5,0.25,0.5")
    rows += run_rows("0,0", [f"d{i}" for i in range(101, 300)])
    path.write_bytes((plain_dump([]) + rows).encode("utf-8") + b"d\xff,pegasus,customer,0,0," + GOOD.encode() + b"\n")
    got = read_outcome(read_per_dialog_csv, path)
    assert got == read_outcome(naive_read_dump, path)
    assert got.startswith(f"{path}, line 102: r1_r: '-0.5' is not a score in [0, 1]")


# --- blocks compared by text with the block that last opened a run of their (method,
# perspective): each dump below has a block whose first row is that block's first row

OPENER = [f"d{i}" for i in range(300)]


def test_text_compare_names_a_faulty_row_before_an_undecodable_byte(tmp_path):
    """The compared block's bytes differ from the opening block's at the faulty row and hold
    a bad byte more than 8 KiB further on; the bytes read are held as lines, read as rows,
    so the faulty row is named first."""
    path = tmp_path / "dump.csv"
    rows = run_rows("0,0", OPENER) + run_rows("0,1", OPENER[:100]) + run_rows("0,1", ["d100"], "0.5,-0.5,0.5,0.25,0.5")
    rows += run_rows("0,1", OPENER[101:299])
    path.write_bytes((plain_dump([]) + rows).encode("utf-8") + b"d\xff,pegasus,customer,0,1," + GOOD.encode() + b"\n")
    assert len(plain_dump([]) + rows) > 3 * 8192
    got = read_outcome(read_per_dialog_csv, path)
    assert got == read_outcome(naive_read_dump, path)
    assert got.startswith(f"{path}, line 402: r1_r: '-0.5' is not a score in [0, 1]")


def test_text_compare_names_an_undecodable_byte_of_the_compared_block(tmp_path):
    path = tmp_path / "dump.csv"
    head = plain_dump([]) + run_rows("0,0", OPENER) + run_rows("0,1", OPENER[:250])
    tail = run_rows("0,1", OPENER[251:])
    path.write_bytes(head.encode("utf-8") + b"d2\xff0,pegasus,customer,0,1," + GOOD.encode() + b"\n" + tail.encode("utf-8"))
    got = read_outcome(read_per_dialog_csv, path)
    assert got == read_outcome(naive_read_dump, path)
    assert got.startswith(f"{path}, line 552: 'utf-8' codec can't decode byte 0xff at offset {len(head) + 2}: invalid start byte")


# --- compared blocks longer than the 8 KiB blocks that a text decoder decodes at a time

LONG = [f"dialog-{i:04d}" for i in range(400)]  # a block of 400 rows is some 22 000 characters long
BLOCK = 8192  # the bytes that a text decoder decodes at a time
BAD = "0.5,0.5,0.5,0.25,-0.5"  # a faulty row's scores, which differ from GOOD's near the row's end


def filler_row(before: str, after: str) -> str:
    """A dump row of a run of its own, to go between `before` and `after`, that makes the
    UTF-8 bytes of the three end where a decoder's block ends."""
    row = f",lead_base,customer,0,0,{GOOD}\n"
    return "f" * (-len((before + row + after).encode("utf-8")) % BLOCK or BLOCK) + row


def ids_of(char: str) -> list[str]:
    return [f"{char * 20}{i}" for i in range(150)]


def test_text_compare_names_a_faulty_row_of_the_compared_block_before_an_undecodable_byte(tmp_path):
    """The faulty row is the last line of a decoder's block, and the bad byte opens the next,
    where a text decoder would fail before that row is read: each line is decoded as it is
    read, so the faulty row is named first."""
    path = tmp_path / "dump.csv"
    head, opener = plain_dump([]), run_rows("0,0", LONG)
    compared = run_rows("0,1", LONG[:200]) + run_rows("0,1", LONG[200:201], BAD)
    assert len(compared) - len(run_rows("0,1", LONG[:1])) > 10_000  # past a decoder block
    text = head + filler_row(head, opener + compared) + opener + compared
    tail = b"d\xff,pegasus,customer,0,1," + GOOD.encode() + b"\n" + run_rows("0,1", LONG[202:]).encode()
    path.write_bytes(text.encode("utf-8") + tail)
    got = read_outcome(read_per_dialog_csv, path)
    assert got == read_outcome(naive_read_dump, path)
    assert got.startswith(f"{path}, line {text.count(chr(10))}: rl_f: '-0.5' is not a score in [0, 1]")


@pytest.mark.parametrize("char, bom", [("d", ""), ("\u00e9", "\ufeff"), ("\u20ac", "\ufeff"), ("\U0001f642", "\ufeff")])
def test_text_compare_leaves_the_decoder_blocks_where_line_iteration_puts_them(tmp_path, char, bom):
    """Two blocks compared with the one they repeat, whose dialog ids are of 1- to 4-byte
    UTF-8 characters, behind a BOM but for the first, read alone: they share its scores.
    Then with a faulty row that ends a decoder's block 8 KiB or more after them, and a bad
    byte that opens the next: the fault is named first."""
    path = tmp_path / "dump.csv"
    head = bom + plain_dump([])
    blocks = run_rows("0,0", ids_of(char)) + run_rows("0,1", ids_of(char)) + run_rows("0,2", ids_of(char))
    gap = (run_rows("0,0", [f"g{i}" for i in range(200)]) + run_rows("0,0", ["g200"], BAD)).replace("customer", "agent")
    assert len(gap.encode()) >= BLOCK
    path.write_bytes((head + blocks).encode("utf-8"))
    assert read_outcome(read_per_dialog_csv, path) == read_outcome(naive_read_dump, path)
    assert scores_by_dict(read_per_dialog_csv(path)) == [[("pegasus", C_, 0, seed) for seed in range(3)]]
    text = head + filler_row(head, blocks + gap) + blocks + gap
    path.write_bytes(text.encode("utf-8") + b"g\xff,pegasus,agent,0,0," + GOOD.encode() + b"\n")
    got = read_outcome(read_per_dialog_csv, path)
    assert got == read_outcome(naive_read_dump, path)
    assert got.startswith(f"{path}, line {text.count(chr(10))}: rl_f: '-0.5' is not a score in [0, 1]")


def test_text_compare_compares_no_row_handed_back_before_an_undecodable_byte(tmp_path):
    """A compared block's lines hold one-row blocks that each repeat the one before, up to
    a bad byte past a decoder's block. Those lines are held once the compare fails, and no
    block among them is compared."""
    path = tmp_path / "dump.csv"
    text = plain_dump([]) + run_rows("0,0", [f"d{i}" for i in range(300)]) + run_rows("9,9", ["x" * 16]).replace("customer", "agent")
    text += "".join(run_rows(f"0,{seed}", ["d0"]) for seed in range(1000, 1500))
    data = text.encode("utf-8")
    path.write_bytes(data[: 2 * BLOCK + 3] + b"\xff" + data[2 * BLOCK + 4 :])
    got = read_outcome(read_per_dialog_csv, path)
    assert got == read_outcome(naive_read_dump, path)
    assert "can't decode byte 0xff" in got


@pytest.mark.parametrize("bad_line", [100, 450, 700], ids=["in-the-opening-block", "in-the-compared-block", "past-it"])
def test_a_pipe_names_an_undecodable_byte_around_a_compared_block_as_the_file_does(tmp_path, bad_line):
    """A block compared with the one that opened its run shares its scores through a pipe
    too; a bad byte before, in or after it is named at the line and offset that one decode
    of the whole input gives, so the line and byte counts include the compared block."""
    text = plain_dump([]) + run_rows("0,0", OPENER) + run_rows("0,1", OPENER) + run_rows("0,2", [f"e{i}" for i in range(300)])
    path = tmp_path / "dump.csv"
    path.write_text(text, encoding="utf-8")
    with piped(text.encode()) as pipe:
        shared = scores_by_dict(read_per_dialog_csv(pipe))
    assert shared == scores_by_dict(read_per_dialog_csv(path)) == [[("pegasus", C_, 0, 0), ("pegasus", C_, 0, 1)], [("pegasus", C_, 0, 2)]]
    lines = text.encode().splitlines(keepends=True)
    lines[bad_line - 1] = lines[bad_line - 1].replace(b",", b"\xff,", 1)
    data = b"".join(lines)
    path.write_bytes(data)
    line, message = naive_undecodable_byte(data)
    assert line == bad_line
    with piped(data) as pipe:
        assert [read_outcome(read_per_dialog_csv, p) for p in (path, pipe)] == [f"{p}, line {line}: {message}" for p in (path, pipe)]


def csv_line(*fields: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


ODD = [("d,2", "pegasus"), ('"d2', "pegasus"), ("d\x002", "pegasus"), ("d\n2", "pegasus"), ("d2", "a,b"), ("d2", '"m')]


@pytest.mark.parametrize(
    "body",
    [
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2", "d3"]) + run_rows("0,2", ["d1", "d2"]),
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + 'd3,"pegasus",customer,0,1,' + GOOD + "\n",
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + '"d3",pegasus,customer,0,1,' + GOOD + "\n",
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + "\n" + run_rows("0,1", ["d3"]),
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + "\r\n" + run_rows("0,1", ["d3"]),
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1"]) + "\n" + run_rows("0,1", ["d2"]),
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]).replace("\n", "\r\n") + run_rows("0,2", ["d1", "d2"]),
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + run_rows("0,1", ["d3"]).replace("\n", "\r\n"),
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"])[:-1],
        run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + run_rows("0,2", ["d1"])[:-1],
        run_rows("0,0", ["d1", "d2", "d3", "d4"]) + "".join(run_rows(f"0,{seed}", ["d1"]) for seed in range(1, 9)),
        *(
            "".join(csv_line(did, method, "customer", "0", "0", *GOOD.split(",")) for did in ("d1", odd))
            + csv_line("d1", method, "customer", "0", "1", *GOOD.split(",")) + f"{odd},{method},customer,0,1,{GOOD}\n"
            for odd, method in ODD
        ),
        "".join(csv_line(did, "pegasus", "customer", "0", seed, *GOOD.split(",")) for did, seed in (("d1", "0"), ("d2", "0"), ("d1", "1\n")))
        + f"d2,pegasus,customer,0,1\n,{GOOD}\n",
        f'd1,pegasus,customer,0,0,{GOOD}\n"d\r2",pegasus,customer,0,0,{GOOD}\nd1,pegasus,customer,0,1,{GOOD}\nd\r2,pegasus,customer,0,1,{GOOD}\n',
        run_rows("0,0", LONG) + run_rows("0,1", LONG)[:-2] + "6\n",
        run_rows("0,0", LONG) + run_rows("0,1", LONG)[:-1] + "\r" + run_rows("0,2", LONG),
        run_rows("0,0", LONG) + run_rows("0,1", LONG) + run_rows("0,1", ["dialog-9999"]),
        run_rows("0,0", LONG) + run_rows("0,1", LONG),
        run_rows("0,0", LONG) + run_rows("0,1", LONG)[:-1],
        run_rows("0,0", LONG) + run_rows("0,1", LONG).replace("\n", "\r\n") + run_rows("0,2", LONG),
        (run_rows("0,0", LONG) + run_rows("0,1", LONG) + run_rows("0,2", LONG)).replace("\n", "\r\n"),
    ],
    ids=[
        "one-row-longer", "quoted-key-after", "quoted-id-after", "blank-then-same-key", "blank-crlf-then-same-key",
        "blank-inside", "crlf-inside", "crlf-same-key-after", "no-final-newline-inside", "no-final-newline-after",
        "handed-back-lines-hold-a-match", *(f"unquoted-{odd!r}-{method!r}" for odd, method in ODD), "unquoted-lf-in-seed",
        "unquoted-cr-in-id", "long-last-character-differs", "long-last-line-ends-in-a-lone-cr", "long-line-after-continues",
        "long-ends-at-eof", "long-ends-at-eof-without-newline", "long-crlf-copy", "long-crlf-body",
    ],
)
def test_text_compare_reads_what_the_row_by_row_reader_reads(tmp_path, body):
    """A block whose run must not keep the scores of the block it repeats: longer than that
    block, a row of its key after it that is quoted or follows a blank line, CR LF ends and
    missing final newlines; held lines that hold a block which repeats another; and lines
    whose text is the repeated block's but whose fields csv.reader splits otherwise, a CR or
    LF in a field among them. Then blocks of 400 rows: one that differs from the block it
    repeats only in its last character, one only in its last line end, one that a row of its
    key re-opens, two that end the file, and CR LF copies."""
    path = tmp_path / "dump.csv"
    path.write_text(plain_dump([]) + body, encoding="utf-8", newline="")
    assert read_outcome(read_per_dialog_csv, path) == read_outcome(naive_read_dump, path)


def test_dump_with_reordered_columns_reads_the_same_runs(tmp_path):
    corpus = scoring_corpus(n=12, n_test=3)
    config = ExperimentConfig(methods=["lead_base", "long_post_process_base"], perspectives=[C_, A_], sizes=(0, 4), n_seeds=2)
    path, reordered = tmp_path / "dump.csv", tmp_path / "reordered.csv"
    write_per_dialog_csv(run_experiment(corpus, config).runs, path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    order = [9, 3, 0, 7, 1, 8, 2, 4, 6, 5]
    with open(reordered, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([row[i] for i in order] for row in rows)
    want = read_outcome(naive_read_dump, path)
    assert read_outcome(read_per_dialog_csv, path) == want
    assert read_outcome(read_per_dialog_csv, reordered) == want


def scores_by_dict(runs: Runs) -> list[list]:
    """The runs' keys grouped by the scores dict they hold, in order of first appearance."""
    groups: dict[int, list] = {}
    for key, scores in runs.items():
        groups.setdefault(id(scores), []).append(key)
    return list(groups.values())


def test_report_shares_scores_where_score_shares_them(tmp_path):
    corpus = scoring_corpus(n=12, n_test=3)
    config = ExperimentConfig(
        methods=["lead_base", "long_post_process_base"], perspectives=[C_, A_], sizes=(0, 4), n_seeds=3
    )
    result = run_experiment(corpus, config)
    path = tmp_path / "per_dialog_scores.csv"
    write_per_dialog_csv(result.runs, path)
    read = read_per_dialog_csv(path)
    assert scores_by_dict(read) == scores_by_dict(result.runs)
    assert len(scores_by_dict(read)) == 4
    assert exact(dump_rows(read)) == exact(dump_rows(result.runs))
    assert table_from_per_dialog(read) == result.table


def test_score_and_report_hold_their_runs_in_plain_dicts_in_one_order(tmp_path):
    """A built-in method's shared runs and an external method's own runs, in the order
    `run_experiment` scores them, which the dump keeps."""
    corpus = scoring_corpus(n=12, n_test=3)
    config = ExperimentConfig(methods=["pegasus", "lead_base"], perspectives=[A_, C_], sizes=(0, 4), n_seeds=2)
    external = [prediction_set(corpus, "pegasus", size, seed, vary=" x" * seed) for size in (0, 4) for seed in (0, 1)]
    runs = run_experiment(corpus, config, external).runs
    path = tmp_path / "per_dialog_scores.csv"
    write_per_dialog_csv(runs, path)
    read = read_per_dialog_csv(path)
    assert type(runs) is dict and type(read) is dict
    assert list(read) == list(runs) == [
        (method, perspective, size, seed)
        for method in ("pegasus", "lead_base") for perspective in (A_, C_) for size in (0, 4) for seed in (0, 1)
    ]


def test_reopening_a_run_that_shares_its_scores_leaves_the_other_runs_alone(tmp_path):
    path = tmp_path / "dump.csv"
    low = "0.25,0.25,0.25,0.125,0.25"
    body = run_rows("0,0", ["d1", "d2"]) + run_rows("0,1", ["d1", "d2"]) + run_rows("0,2", ["d1", "d2"])
    body += run_rows("0,0", ["d3"], low) + run_rows("00,1", ["d4"], low) + run_rows("0,0", ["d5"], low)
    path.write_text(plain_dump([]) + body, encoding="utf-8")
    read = read_per_dialog_csv(path)
    assert read_outcome(lambda _: read, path) == read_outcome(naive_read_dump, path)
    runs = {key[3]: scores for key, scores in read.items()}
    assert list(runs[0]) == ["d1", "d2", "d3", "d5"]
    assert list(runs[1]) == ["d1", "d2", "d4"]
    assert list(runs[2]) == ["d1", "d2"]
    assert runs[0] is not runs[2] and runs[1] is not runs[2]


# shapes of dump body for the linear-time test: the body, its runs and scores dicts, and
# the seconds it may take to read
DUMP_SHAPES = {
    "40000-rows-alternating-between-two-runs":
        (lambda: "".join(run_rows(f"0,{i % 2}", [f"d{i // 2}"]) for i in range(40_000)), 2, 2, 4.0),
    "40000-rows-in-reopened-50-row-blocks":
        (lambda: "".join(run_rows(f"0,{b % 2}", [f"d{b // 2 * 50 + i}" for i in range(50)]) for b in range(800)), 2, 2, 2.0),
    "80-rows-of-100000-char-ids-in-shared-runs":
        (lambda: "".join(run_rows(f"0,{seed}", [f"{i:02d}" + "x" * 99_998 for i in range(10)]) for seed in range(8)), 8, 1, 0.5),
    "40000-rows-in-2000-compared-blocks-that-end-apart":
        (lambda: "".join(run_rows(f"0,{b}", [*(f"d{i}" for i in range(19)), f"e{b:04d}"]) for b in range(2000)), 2000, 2000, 2.0),
}


@pytest.mark.parametrize("shape", DUMP_SHAPES)
def test_dump_reader_reads_in_linear_time(tmp_path, shape):
    """Each shape read in 0.31, 0.16, 0.02 and 0.20 s on a 2-vCPU host; the limits are ten
    times that or more, so a cost per row that grows with the rows read before it fails. In
    the last, every block is compared with the one before and differs in its last row."""
    build, n_runs, n_dicts, limit = DUMP_SHAPES[shape]
    body = build()
    path = tmp_path / "dump.csv"
    path.write_text(plain_dump([]) + body, encoding="utf-8")
    start = time.perf_counter()
    read = read_per_dialog_csv(path)
    elapsed = time.perf_counter() - start
    assert (len(read), sum(map(len, read.values())), len(scores_by_dict(read))) == (n_runs, body.count("\n"), n_dicts)
    assert elapsed < limit, f"{elapsed:.2f} s"


def test_full_perspective_matches_direct_score_pair():
    corpus = scoring_corpus(n=8, n_test=2)
    config = ExperimentConfig(
        methods=["lead_long_post_process_base"], perspectives=[Perspective.FULL], sizes=(0,), n_seeds=1
    )
    result = run_experiment(corpus, config)
    spec = parse_builtin_method("lead_long_post_process_base")
    dialogs = corpus.by_id()
    for did, *_, r1_f, _, rl_f in dump_rows(result.runs):
        cand = builtin_candidate(dialogs[did], spec, Perspective.FULL)
        gold = corpus.gold[did]
        pair = score_pair(cand.text, gold.customer_part + " " + gold.agent_part)
        assert rl_f == pair.rl_f
        assert r1_f == pair.r1_f



# --- whole runs against the naive oracles -------------------------------------------

RUN_WORDS = ("alpha", "Bravo", "charlie!", "the customer", "Agent", "delta-echo", "running", "runs", "x")
RUN_TEXT = st.lists(st.sampled_from(RUN_WORDS), min_size=1, max_size=7).map(" ".join)
RUN_IDS = ("d0", "d,1", 'd"2', "d3", "d\r4", "d 5")
RUN_METHODS = ("lead_base", "long_post_process_base", "lead_long_post_process_base", "pegasus", 'odd, "m"_post_process')
# a gold part or a prediction side: text, blank or tokenless text, or (for a side) None
RUN_PART = st.one_of(RUN_TEXT, st.sampled_from(["", "  ", "?!"]))
RUN_SIDE = st.one_of(st.none(), RUN_PART)


@st.composite
def whole_runs(draw):
    """A small corpus with test dialogs that may lack gold, a valid config, prediction sets
    with stray, missing and blank entries, for unrequested cells too and now and then
    without a requested cell, and the score columns whose zeros are negative."""
    n = draw(st.integers(2, len(RUN_IDS)))
    turns = st.lists(st.tuples(st.sampled_from([C, A]), RUN_TEXT), min_size=1, max_size=5)
    dialogs = [make_dialog(did, draw(turns)) for did in RUN_IDS[:n]]
    split = {did: draw(st.sampled_from([Split.TEST, Split.TEST, Split.TRAIN, Split.VALIDATION])) for did in RUN_IDS[:n]}
    no_gold = draw(st.sets(st.sampled_from(RUN_IDS[:n]), max_size=1))
    gold = {did: GoldSummary(*draw(st.tuples(RUN_PART, RUN_PART))) for did in RUN_IDS[:n] if did not in no_gold}
    config = ExperimentConfig(
        methods=draw(st.lists(st.sampled_from(RUN_METHODS), min_size=1, max_size=3, unique=True)),
        perspectives=draw(st.lists(st.sampled_from(list(Perspective)), min_size=1, max_size=3, unique=True)),
        sizes=tuple(sorted(draw(st.sets(st.integers(0, 2), min_size=1, max_size=2)))),
        n_seeds=draw(st.sampled_from([2, 1])),
        tokenizer=TokenizerConfig(*draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))),
        prefixes=draw(st.sampled_from([PrefixConfig(), PrefixConfig("C: ", "A: "), PrefixConfig("", "agent ")])),
        min_tokens=draw(st.integers(1, 4)),
        cap_to_population=draw(st.sampled_from([True, True, False])),
        strict_missing=draw(st.sampled_from([False, False, False, True])),
    )
    # every requested cell but, now and then, one; then cells the config does not request
    cells = [(m, size, seed) for m in config.methods if parse_builtin_method(m) is None
             for size in config.sizes for seed in config.seeds if draw(st.integers(0, 15))]
    cells += [cell for cell in draw(st.lists(st.tuples(st.sampled_from(["pegasus", "bart", "lead_base"]), st.integers(0, 4),
                                                       st.integers(0, 2)), max_size=2, unique=True)) if cell not in cells]
    entry_or_none = st.one_of(st.builds(PredictionEntry, RUN_SIDE, RUN_SIDE), st.none())
    entries = st.lists(entry_or_none, min_size=n + 1, max_size=n + 1).map(lambda drawn: {
        did: entry for did, entry in zip([*RUN_IDS[:n], "stray"], drawn) if entry is not None})
    external = [PredictionSet(*cell, draw(entries)) for cell in draw(st.permutations(cells))]
    return Corpus(dialogs, gold=gold, split=split), config, external, draw(st.sets(st.integers(0, 4)))


@settings(max_examples=400, deadline=None)
@given(whole_runs())
def test_run_equals_the_naive_whole_run(tmp_path_factory, run):
    """The table's cells, the dump's bytes and the warnings, or the error, of a whole run as
    the naive oracles put them together; and the table that `report` builds from the dump.
    score_pair never gives -0.0, so the drawn score columns get their zeros negated, as a
    scorer that signs its zeros would give them: the dump must keep each zero's sign."""
    corpus, config, external, negative_zeros = run
    cells, dump, warnings = naive_run_experiment(corpus, config, external, negative_zeros)

    def signed_score_pair(*args):
        return tuple(-0.0 if col in negative_zeros and not x else x for col, x in enumerate(score_pair(*args)))

    got_warnings: list[str] = []
    with mock.patch.object(experiment, "score_pair", signed_score_pair):
        try:
            result = run_experiment(corpus, config, external, got_warnings)
        except ExperimentError as exc:
            result = str(exc)
    assert got_warnings == warnings
    if dump is None:
        assert result == cells
        return
    assert {key: {size: tuple(cell) for size, cell in row.items()} for key, row in result.table.rows.items()} == cells
    assert result.table.sizes == sorted({size for row in cells.values() for size in row})
    path = tmp_path_factory.mktemp("run") / "per_dialog_scores.csv"
    write_per_dialog_csv(result.runs, path)
    assert path.read_bytes() == dump.encode("utf-8")
    assert table_from_per_dialog(read_per_dialog_csv(path)) == result.table


# --- report emission ---------------------------------------------------------------


def test_format_cell_zero_deviation():
    assert format_cell(AggregateCell(mean=0.3875, deviation=0.0, n_runs=5)) == "38.75"


def test_format_cell_with_deviation():
    assert format_cell(AggregateCell(mean=0.1773, deviation=0.0079, n_runs=5)) == "17.73 (±0.79)"


def test_format_cell_single_run_suppresses_deviation():
    assert format_cell(AggregateCell(mean=0.5, deviation=0.0, n_runs=1)) == "50.00"


def demo_table():
    rows = {
        ("lead_base", Perspective.CUSTOMER, "rouge1"): {
            0: AggregateCell(0.3875, 0.0, 5),
            16: AggregateCell(0.3875, 0.0, 5),
        },
        ("lead_base", Perspective.CUSTOMER, "rouge2"): {
            0: AggregateCell(0.1773, 0.0079, 5),
            16: AggregateCell(0.1801, 0.0112, 5),
        },
        ("lead_base", Perspective.CUSTOMER, "rougeL"): {
            0: AggregateCell(0.31, 0.0, 5),
            16: AggregateCell(0.31, 0.0, 5),
        },
    }
    return ResultTable(sizes=[0, 16], rows=rows)


def test_emit_markdown_layout():
    report = emit_report(demo_table(), "md")
    assert "## Customer perspective - Rouge-1" in report
    assert "| lead_base | 38.75 | 38.75 |" in report
    assert "17.73 (±0.79)" in report


def test_emit_csv_layout():
    report = emit_report(demo_table(), "csv")
    lines = report.strip().splitlines()
    assert lines[0] == "perspective,rouge,method,0,16"
    assert lines[1] == "customer,Rouge-1,lead_base,38.75,38.75"
    assert any("17.73 (±0.79)" in line for line in lines)


def test_emit_report_rejects_empty_table():
    with pytest.raises(ExperimentError):
        emit_report(ResultTable(sizes=[], rows={}), "md")
    with pytest.raises(ExperimentError):
        emit_report(demo_table(), "html")


# --- rate curve -----------------------------------------------------------------------


def fired_candidate(i, fired):
    return CandidateSummary("some text", fired)


def test_rate_curve_flat_zero():
    per_size = {0: [fired_candidate(0, False)], 16: [fired_candidate(0, False)]}
    assert rate_curve(per_size) == {0: 0.0, 16: 0.0}


def test_rate_curve_decreasing():
    per_size = {
        0: [fired_candidate(i, True) for i in range(10)],
        1024: [fired_candidate(i, i == 0) for i in range(10)],
    }
    assert rate_curve(per_size) == {0: 1.0, 1024: 0.1}


def test_rate_curve_empty_size_names_size():
    with pytest.raises(ExperimentError, match="16"):
        rate_curve({16: []})


def test_rate_curve_counts_fired_share():
    per_size = {0: [fired_candidate(i, fired) for i, fired in enumerate([True, False, False, False])]}
    assert rate_curve(per_size) == {0: 0.25}


def test_rate_curve_extremes():
    per_size = {0: [fired_candidate(0, True)] * 3, 16: [fired_candidate(0, False)] * 3}
    assert rate_curve(per_size) == {0: 1.0, 16: 0.0}


def test_rate_curve_empty_errors():
    # one empty size fails the whole curve, even when another size has candidates
    with pytest.raises(ValueError):
        rate_curve({0: [], 16: [fired_candidate(0, True)]})


def test_rate_curve_permutation_invariant():
    rand = random.Random(2)
    candidates = [fired_candidate(i, rand.random() < 0.3) for i in range(40)]
    shuffled = candidates[:]
    rand.shuffle(shuffled)
    assert rate_curve({0: candidates}) == rate_curve({0: shuffled})


def test_rate_curve_base_candidates_mostly_fire():
    # extractive utterances rarely open with "[The] customer/agent"; one dialog
    # is built so its lead utterance does, pinning the rate at 0.75
    turns = [
        ("alpha", "my invoice from last month is wrong"),
        ("bravo", "the app crashes when I upload a file"),
        ("charlie", "customer here, my parcel never arrived"),
        ("delta", "please reset my two factor authentication"),
    ]
    candidates = []
    spec = parse_builtin_method("lead_post_process_base")
    for did, text in turns:
        dialog = make_dialog(did, [(C, text), (A, "let me take a look at that for you")])
        candidates.append(builtin_candidate(dialog, spec, Perspective.CUSTOMER))
    rates = rate_curve({0: candidates, 16: candidates})
    assert rates == {0: 0.75, 16: 0.75}


def test_rate_curve_csv_format():
    text = rate_curve_csv({16: 0.5, 0: 1.0})
    assert text == "size,rate\n0,1.0\n16,0.5\n"


# --- config parsing ----------------------------------------------------------------------


def test_parse_config_minimal():
    config, paths = parse_config({"methods": ["lead_base"], "perspectives": ["customer"]})
    assert config.sizes == (0, 16, 32, 64, 128, 256, 512, 1024)
    assert config.n_seeds == 5
    assert paths.predictions == ()
    assert config == ExperimentConfig(methods=["lead_base"], perspectives=[Perspective.CUSTOMER])
    assert paths == ConfigPaths()


def test_parse_config_full():
    document = {
        "methods": ["lead_base", "pegasus"],
        "perspectives": ["customer", "full"],
        "sizes": [0, 16],
        "n_seeds": 2,
        "tokenizer": {"stemming": True},
        "prefix_customer": "The customer asks: ",
        "cap_to_population": True,
        "corpus": "corpus.jsonl",
        "predictions": ["a.jsonl"],
    }
    config, paths = parse_config(document)
    assert config.tokenizer.stemming
    assert config.prefixes.customer == "The customer asks: "
    assert config.cap_to_population
    assert paths.corpus == "corpus.jsonl"
    assert paths.predictions == ["a.jsonl"]


def test_parse_config_every_key():
    document = {
        "methods": ["pegasus"],
        "perspectives": ["agent"],
        "sizes": [0, 8],
        "n_seeds": 3,
        "tokenizer": {"stemming": True},
        "min_tokens": 2,
        "cap_to_population": True,
        "strict_missing": True,
        "prefix_customer": "C: ",
        "prefix_agent": "A: ",
        "corpus": "corpus.jsonl",
        "split": "split.csv",
        "predictions": ["a.jsonl"],
    }
    config, paths = parse_config(document)
    assert config == ExperimentConfig(
        methods=["pegasus"],
        perspectives=[Perspective.AGENT],
        sizes=(0, 8),
        n_seeds=3,
        tokenizer=TokenizerConfig(stemming=True),
        prefixes=PrefixConfig(customer="C: ", agent="A: "),
        min_tokens=2,
        cap_to_population=True,
        strict_missing=True,
    )
    assert paths == ConfigPaths(corpus="corpus.jsonl", split="split.csv", predictions=["a.jsonl"])


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ExperimentError, match="typo_key"):
        parse_config({"methods": ["lead_base"], "perspectives": ["customer"], "typo_key": 1})


def test_parse_config_rejects_bad_sizes():
    with pytest.raises(ExperimentError):
        parse_config({"methods": ["lead_base"], "perspectives": ["customer"], "sizes": [16, 16]})


@pytest.mark.parametrize(
    "methods, perspectives, message",
    [
        (["pegasus", "pegasus", "lead_base"], ["customer"], "config lists method 'pegasus' more than once"),
        (["lead_base"], ["agent", "customer", "agent"], "config lists perspective 'agent' more than once"),
    ],
    ids=["method", "perspective"],
)
def test_parse_config_rejects_a_repeated_entry(methods, perspectives, message):
    with pytest.raises(ExperimentError, match=f"^{message}$"):
        parse_config({"methods": methods, "perspectives": perspectives})



def test_parse_config_finds_a_repeat_among_40000_methods_in_linear_time():
    """The first name that repeats, in list order, is named: 'm39999' repeats before 'm0'
    does. Slicing the list before each name took 5 s at 20 000 names on a 2-vCPU host."""
    methods = [f"m{i}" for i in range(40_000)] + ["m39999", "m0"]
    start = time.perf_counter()
    with pytest.raises(ExperimentError, match="^config lists method 'm39999' more than once$"):
        parse_config({"methods": methods, "perspectives": ["customer"]})
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f} s"

def test_load_config_file_reads_100000_sizes_and_seeds_in_linear_time(tmp_path):
    """100 000 sizes and n_seeds 100 000 load in at most 0.05 s (three loads) on a 2-vCPU
    host; the limit is twenty times that."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"methods": ["lead_base"], "perspectives": ["customer"], "sizes": list(range(100_000)),
                                "n_seeds": 100_000}), encoding="utf-8")
    start = time.perf_counter()
    config, _ = load_config_file(path)
    elapsed = time.perf_counter() - start
    assert (len(config.sizes), len(config.seeds)) == (100_000, 100_000)
    assert elapsed < 1.0, f"{elapsed:.2f} s"


def test_parse_config_rejects_bad_perspective():
    with pytest.raises(ExperimentError):
        parse_config({"methods": ["lead_base"], "perspectives": ["speaker"]})


@pytest.mark.parametrize("methods, min_tokens", [(["lead_base"], 0), (["long_base"], -4)])
def test_parse_config_rejects_min_tokens_below_one(methods, min_tokens):
    with pytest.raises(ExperimentError, match="^min_tokens must be >= 1$"):
        parse_config({"methods": methods, "perspectives": ["customer"], "min_tokens": min_tokens})


@pytest.mark.parametrize(
    "key, value",
    [
        ("methods", "lead_base"),
        ("methods", ["lead_base", 3]),
        ("perspectives", "customer"),
        ("sizes", [0, 16.0]),
        ("sizes", "16"),
        ("sizes", [0, True]),
        ("n_seeds", "5"),
        ("n_seeds", 2.0),
        ("min_tokens", "5"),
        ("predictions", "pegasus.jsonl"),
        ("strict_missing", "false"),
        ("cap_to_population", 1),
        ("prefix_customer", 7),
        ("prefix_agent", None),
        ("corpus", ["corpus.jsonl"]),
        ("split", 3),
        ("tokenizer", ["stemming"]),
    ],
)
def test_parse_config_rejects_wrongly_typed_values(key, value):
    document = {"methods": ["lead_base"], "perspectives": ["customer"], key: value}
    with pytest.raises(ExperimentError, match=f"config key '{key}' must be"):
        parse_config(document)


def test_parse_config_names_the_first_bad_key_in_schema_order():
    document = {"methods": ["lead_base"], "perspectives": ["customer"], "tokenizer": ["stemming"], "sizes": "16"}
    with pytest.raises(ExperimentError, match="^config key 'sizes' must be a list of int values, got '16'$"):
        parse_config(document)


def test_parse_config_rejects_a_tokenizer_setting_that_is_not_a_bool():
    document = {"methods": ["lead_base"], "perspectives": ["customer"], "tokenizer": {"stemming": "false"}}
    with pytest.raises(ExperimentError, match="tokenizer setting 'stemming' must be true or false"):
        parse_config(document)
