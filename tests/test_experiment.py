from __future__ import annotations

import csv
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum import (
    Corpus,
    ExperimentConfig,
    ExperimentError,
    MissingCellsError,
    ParseError,
    Perspective,
    SpeakerRole,
    Split,
    make_dialog,
    run_experiment,
    sample_nested_subsets,
)
from persum.experiment import (
    PER_DIALOG_COLUMNS,
    ConfigPaths,
    PerDialogScore,
    ResultTable,
    RunScores,
    emit_report,
    format_cell,
    parse_config,
    rate_curve,
    rate_curve_csv,
    read_per_dialog_csv,
    table_from_per_dialog,
    write_per_dialog_csv,
    write_subset_files,
)
from persum.rouge import AggregateCell, TokenizerConfig, score_pair
from persum.summarize import (
    CandidateSummary,
    PredictionEntry,
    PredictionSet,
    PrefixConfig,
    builtin_candidate,
    parse_builtin_method,
)
from util import synthetic_corpus

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
    result = run_experiment(corpus, config, [pred])
    assert any(test_ids[0] in w for w in result.warnings)
    scored = {row.dialog_id for row in result.per_dialog}
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
    assert list(result.per_dialog) == list(clean.per_dialog)


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
    assert list(result.per_dialog) == list(clean.per_dialog)


def test_run_with_no_scored_dialog_errors():
    corpus = scoring_corpus()
    pred = prediction_set(corpus, "pegasus", 0, 0)
    pred.entries.clear()
    config = ExperimentConfig(
        methods=["pegasus"], perspectives=[Perspective.CUSTOMER], sizes=(0,), n_seeds=1
    )
    with pytest.raises(ExperimentError, match="no dialog scored"):
        run_experiment(corpus, config, [pred])


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


def test_run_requires_gold_and_split():
    corpus = scoring_corpus()
    config = ExperimentConfig(methods=["lead_base"], perspectives=[Perspective.CUSTOMER], sizes=(0,))
    no_gold = Corpus(corpus.dialogs, gold=None, split=corpus.split)
    with pytest.raises(ExperimentError, match="gold"):
        run_experiment(no_gold, config)
    no_split = Corpus(corpus.dialogs, gold=corpus.gold, split=None)
    with pytest.raises(ExperimentError, match="split"):
        run_experiment(no_split, config)


def test_oversized_sizes_error_without_cap_flag():
    corpus = scoring_corpus()
    config = ExperimentConfig(
        methods=["lead_base"], perspectives=[Perspective.CUSTOMER], sizes=(0, 1024)
    )
    with pytest.raises(ExperimentError):
        run_experiment(corpus, config)
    capped = ExperimentConfig(
        methods=["lead_base"],
        perspectives=[Perspective.CUSTOMER],
        sizes=(0, 1024),
        cap_to_population=True,
    )
    result = run_experiment(corpus, capped)
    assert len(result.families[0].subsets[1024]) == len(corpus.dialog_ids(Split.TRAIN))


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
    assert list(first.per_dialog) == list(second.per_dialog)


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
    write_per_dialog_csv(result.per_dialog, path)
    recomputed = table_from_per_dialog(read_per_dialog_csv(path))
    # one reducer and repr floats in the dump: the round trip is exact
    assert recomputed == result.table


# --- per-dialog dump round trip -----------------------------------------------------


def plain_dump(rows) -> str:
    """The dump as a writer that formats every field of every row would write it,
    rows in the order the runs structure yields them. Fields are quoted as for "\r\n"
    line ends, so that a lone "\r" is quoted too, and each line ends in "\n"."""
    lines = []
    for fields in [PER_DIALOG_COLUMNS, *([*row[:2], row.perspective.value, *row[3:5], *map(repr, row[5:])] for row in rows)]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(fields)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def exact(rows):
    """Rows with scores as their repr, so that 0.0 and -0.0 differ."""
    return [(*row[:5], *map(repr, row[5:])) for row in rows]


def runs_of(rows) -> RunScores:
    """The runs structure holding `rows`, grouped by run in order of first appearance."""
    runs = RunScores()
    for row in rows:
        runs.runs.setdefault(row[1:5], {})[row.dialog_id] = row[5:]
    return runs


def assert_round_trip(runs, path):
    write_per_dialog_csv(runs, path)
    assert path.read_text(encoding="utf-8") == plain_dump(runs)
    read = read_per_dialog_csv(path)
    assert len(read) == len(runs)
    assert list(read) == list(runs)
    assert exact(read) == exact(runs)
    return read


C_, A_ = Perspective.CUSTOMER, Perspective.AGENT


def test_dump_round_trip_scores_repeated_across_cells(tmp_path):
    corpus = scoring_corpus(n=12, n_test=3)
    config = ExperimentConfig(methods=["lead_base"], perspectives=[C_], sizes=(0, 4), n_seeds=3)
    rows = run_experiment(corpus, config).per_dialog
    assert len(rows) == 3 * 2 * 3
    read = assert_round_trip(rows, tmp_path / "dump.csv")
    # a dialog's rows share the floats of its first row, as run_experiment's rows do
    first = {}
    for row in read:
        assert all(a is b for a, b in zip(row[5:], first.setdefault(row.dialog_id, row)[5:]))


def test_dump_round_trip_scores_change_between_cells(tmp_path):
    high = (0.5, 0.25, 1 / 3, 0.125, 0.2)
    low = (0.0, 0.0, 0.0, 0.0, 0.0)
    rows = [
        PerDialogScore("d1", "pegasus", C_, 0, 0, *high),
        PerDialogScore("d1", "pegasus", C_, 0, 1, *high),
        PerDialogScore("d1", "pegasus", C_, 16, 0, *low),  # a stale reuse would repeat `high`
        PerDialogScore("d1", "pegasus", C_, 16, 1, -0.0, *low[1:]),  # equal to `low`, other text
        PerDialogScore("d1", "pegasus", C_, 32, 0, *low),
        PerDialogScore("d1", "pegasus", C_, 32, 1, *high),
        PerDialogScore("d1", "pegasus", C_, 64, 0, *high[:4], 0.75),  # one column changes
    ]
    assert_round_trip(runs_of(rows), tmp_path / "dump.csv")


def test_dump_round_trip_methods_and_perspectives_interleaved(tmp_path):
    a = (0.5, 0.5, 0.5, 0.25, 0.5)
    b = (0.75, 0.5, 0.6, 0.3, 0.55)
    rows = []
    for seed in range(2):
        for did in ("d1", "d2"):
            rows += [
                PerDialogScore(did, "lead_base", C_, 0, seed, *a),
                PerDialogScore(did, "long_base", A_, 0, seed, *b),
                PerDialogScore(did, "pegasus", C_, 0, seed, *(b if seed else a)),
                PerDialogScore(did, 'odd, "quoted" method', A_, 0, seed, *a),
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
        rows.append(PerDialogScore(did, method, perspective, cell, seed, *scores))
    path = tmp_path_factory.mktemp("dump") / "dump.csv"
    write_per_dialog_csv(runs_of(rows), path)
    assert path.read_text(encoding="utf-8") == plain_dump(rows)
    assert exact(read_per_dialog_csv(path)) == exact(rows)


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
    runs, dicts = RunScores(), []
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
        runs.runs[(method, perspective, cell, seed)] = scores
    rows = list(runs)
    assert len(runs) == len(rows) == sum(len(scores) for scores in runs.runs.values())
    path = tmp_path_factory.mktemp("dump") / "dump.csv"
    write_per_dialog_csv(runs, path)
    assert path.read_bytes().decode("utf-8") == plain_dump(rows)  # no newline translation
    read = read_per_dialog_csv(path)
    assert list(read) == rows
    assert exact(read) == exact(rows)


def test_full_perspective_matches_direct_score_pair():
    corpus = scoring_corpus(n=8, n_test=2)
    config = ExperimentConfig(
        methods=["lead_long_post_process_base"], perspectives=[Perspective.FULL], sizes=(0,), n_seeds=1
    )
    result = run_experiment(corpus, config)
    spec = parse_builtin_method("lead_long_post_process_base")
    dialogs = corpus.by_id()
    for row in result.per_dialog:
        cand = builtin_candidate(dialogs[row.dialog_id], spec, Perspective.FULL)
        gold = corpus.gold[row.dialog_id]
        triple = score_pair(cand.text, gold.customer_part + " " + gold.agent_part)
        assert row.rl_f == triple.rl.f_measure
        assert row.r1_f == triple.r1.f_measure


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
