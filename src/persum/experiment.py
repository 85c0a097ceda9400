"""Experiment orchestration: nested few-shot subsets, per-method scoring runs,
seed aggregation, and report emission in the method x training-size layout.

Scores are stored in [0, 1] and rendered x100 with two decimals in reports.
Per-run score is the unweighted mean over scored test dialogs; cells aggregate
the per-run means over seeds as mean (+/- sample standard deviation). `score`
and `report` build the table from a `Runs` dict with the same reducer.
"""

from __future__ import annotations

import csv
import io
import math
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .corpus import (
    Corpus,
    GoldSummary,
    ParseError,
    SpeakerRole,
    Split,
    csv_body,
    csv_header,
    decode_json,
    read_lines,
    reject_lone_surrogates,
)
from .rng import make_rng
from .rouge import (
    AggregateCell,
    PreparedReference,
    TokenizerConfig,
    aggregate,
    prepare_reference,
    score_pair,
    tokenize,
)
from .summarize import (
    CandidateSummary,
    Perspective,
    PredictionEntry,
    PredictionSet,
    PrefixConfig,
    builtin_candidate,
    parse_builtin_method,
    prediction_sides,
)
from .weaklabel import DEFAULT_MIN_TOKENS

DEFAULT_SIZES = (0, 16, 32, 64, 128, 256, 512, 1024)
DEFAULT_N_SEEDS = 5
VARIANTS = ("rouge1", "rouge2", "rougeL")
VARIANT_LABELS = {"rouge1": "Rouge-1", "rouge2": "Rouge-2", "rougeL": "Rouge-L"}
PERSPECTIVE_LABELS = {
    Perspective.CUSTOMER: "Customer perspective",
    Perspective.AGENT: "Agent perspective",
    Perspective.FULL: "Full summary",
}


class ExperimentError(ValueError):
    """The experiment configuration or its inputs are unusable."""


def _cell_text(cell: tuple[str, int, int]) -> str:
    method, size, seed = cell
    return f"({method}, size={size}, seed={seed})"


class MissingCellsError(ExperimentError):
    """External predictions do not cover every requested (method, size, seed)."""

    SHOWN = 10  # cells the message lists; `cells` holds them all

    def __init__(self, cells: Sequence[tuple[str, int, int]]):
        listing = ", ".join(map(_cell_text, cells[: self.SHOWN]))
        if len(cells) > self.SHOWN:
            listing += f", … and {len(cells) - self.SHOWN} more"
        super().__init__(f"missing prediction cells: {listing}")
        self.cells = list(cells)


def check_sizes(sizes: Sequence[int]) -> None:
    """The rule for training sizes, in a config and on the command line alike."""
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ExperimentError("sizes must be strictly increasing")
    if sizes and sizes[0] < 0:
        raise ExperimentError("sizes must be non-negative")


class ExperimentConfig(NamedTuple):
    """What `score` runs. Immutable; change a field with _replace."""

    methods: list[str]
    perspectives: list[Perspective]
    sizes: tuple[int, ...] = DEFAULT_SIZES
    n_seeds: int = DEFAULT_N_SEEDS
    tokenizer: TokenizerConfig = TokenizerConfig()
    prefixes: PrefixConfig = PrefixConfig()
    min_tokens: int = DEFAULT_MIN_TOKENS
    cap_to_population: bool = False
    strict_missing: bool = False

    def validate(self) -> None:
        if not self.methods:
            raise ExperimentError("config needs at least one method")
        if not self.perspectives:
            raise ExperimentError("config needs at least one perspective")
        for kind, names in (("method", self.methods), ("perspective", [p.value for p in self.perspectives])):
            seen: set[str] = set()
            for name in names:
                if name in seen:
                    raise ExperimentError(f"config lists {kind} {name!r} more than once")
                seen.add(name)
        if not self.sizes:
            raise ExperimentError("config needs at least one training size")
        check_sizes(self.sizes)
        if self.n_seeds < 1:
            raise ExperimentError("n_seeds must be >= 1")
        if self.min_tokens < 1:
            raise ExperimentError("min_tokens must be >= 1")

    @property
    def seeds(self) -> list[int]:
        return list(range(self.n_seeds))


# --- nested subset sampling ----------------------------------------------------


class SubsetFamily(NamedTuple):
    """Training subsets for one seed; every subset is a prefix of the next."""

    seed: int
    subsets: dict[int, list[str]]


def _check_population(population: int, sizes: Sequence[int], cap_to_population: bool) -> None:
    if not cap_to_population and max(sizes) > population:
        raise ExperimentError(
            f"subset size {max(sizes)} exceeds the {population}-id training population "
            f"(pass cap_to_population to clamp oversized requests)"
        )


def sample_nested_subsets(
    train_ids: Sequence[str],
    sizes: Sequence[int],
    seed: int,
    cap_to_population: bool = False,
) -> SubsetFamily:
    """Shuffle once per seed and take prefixes, which guarantees nesting.

    Sizes beyond the population are an error unless cap_to_population is set,
    in which case they mean "all of the training set" while keeping their label.
    """
    if not sizes:
        raise ExperimentError("no subset sizes requested")
    population = len(train_ids)
    _check_population(population, sizes, cap_to_population)
    rng = make_rng(seed)
    shuffled = [train_ids[i] for i in rng.permutation(population)]
    subsets = {size: shuffled[: min(size, population)] for size in sizes}
    return SubsetFamily(seed=seed, subsets=subsets)


def write_subset_files(families: Iterable[SubsetFamily], out_dir: str | Path) -> None:
    """Write subsets/<seed>/<size>.txt, one dialog id per line."""
    base = Path(out_dir)
    for seed, subsets in families:
        seed_dir = base / str(seed)
        seed_dir.mkdir(parents=True, exist_ok=True)
        for size, ids in subsets.items():
            (seed_dir / f"{size}.txt").write_text(
                "".join(did + "\n" for did in ids), encoding="utf-8"
            )


# --- scoring runs ---------------------------------------------------------------


RunKey = tuple[str, Perspective, int, int]  # method, perspective, size, seed
# The per-dialog scores of every run: each run's key -> its {dialog id: (r1_p, r1_r, r1_f,
# r2_f, rl_f)}, in dump order. Runs may share one scores dict, as a built-in method's runs
# do, and a run with no scored dialog is not stored.
Runs = dict[RunKey, dict[str, tuple[float, ...]]]


class ResultTable(NamedTuple):
    sizes: list[int]
    rows: dict[tuple[str, Perspective, str], dict[int, AggregateCell]]


class RunResult(NamedTuple):
    table: ResultTable
    runs: Runs
    warnings: list[str]


def _gold_reference(gold: GoldSummary, perspective: Perspective) -> str:
    parts = {SpeakerRole.CUSTOMER: gold.customer_part, SpeakerRole.AGENT: gold.agent_part}
    return " ".join(parts[role] for role in perspective.roles)


def _score_dialogs(
    candidates: Callable[[str], Sequence[str | list[str] | None]],
    references: Mapping[Perspective, Mapping[str, PreparedReference]],
    tokenizer: TokenizerConfig,
) -> dict[Perspective, tuple[dict[str, tuple[float, ...]], list[str]]]:
    """Score `candidates(did)`, a dialog's candidate text or tokens in each perspective of
    `references` (None for none), built just before they are scored, against the dialog's
    prepared references, in reference order, as score_pair's PairScores (a dump row's five
    scores). Each perspective gets its scores and the dialogs it has no candidate for."""
    cells = {perspective: ({}, []) for perspective in references}
    targets = [(references[perspective], *cell) for perspective, cell in cells.items()]
    for did in next(iter(references.values())):
        for candidate, (prepared, scores, missing) in zip(candidates(did), targets):
            if candidate is None:
                missing.append(did)
            else:
                scores[did] = score_pair(candidate, prepared[did], tokenizer)
    return cells


def _prediction_tokens(
    entries: Mapping[str, PredictionEntry],
    method: str,
    roles: Sequence[SpeakerRole],
    views: Sequence[Sequence[SpeakerRole]],
    config: ExperimentConfig,
    did: str,
) -> list[list[str] | None]:
    """Dialog `did`'s candidate tokens from its prediction entry in each view, a perspective's roles,
    None where it has no side. Each of the entry's sides among `roles`, every view's, is tokenized
    once, and a view's tokens are its sides' in join order: the tokens of the sides joined with a
    space, which is neither cased nor case-ignorable."""
    entry = entries.get(did)
    if entry is None:
        return [None] * len(views)
    sides = prediction_sides(entry, method, roles, config.prefixes)
    tokens = {role: tokenize(text, config.tokenizer) for role, (text, _) in sides.items()}
    found = []
    for view in views:
        joined = None
        for role in view:
            if role in tokens:
                joined = tokens[role] if joined is None else joined + tokens[role]
        found.append(joined)
    return found


def _missing(dids: Sequence[str], message: str, config: ExperimentConfig, warnings: list[str]) -> None:
    """A dialog with no candidate is an error under strict_missing, else a warning `message.format(did)`."""
    if dids and config.strict_missing:
        raise ExperimentError(message.format(dids[0]))
    warnings.extend(map(message.format, dids))


def index_prediction_sets(sets: Iterable[PredictionSet]) -> dict[tuple[str, int, int], PredictionSet]:
    """Prediction sets by (method, size, seed) cell, in input order; two sets for one
    cell are an error."""
    index: dict[tuple[str, int, int], PredictionSet] = {}
    for pred in sets:
        if pred.cell in index:
            raise ExperimentError(f"duplicate prediction set for cell {pred.cell}")
        index[pred.cell] = pred
    return index


def run_experiment(
    corpus: Corpus,
    config: ExperimentConfig,
    external: Sequence[PredictionSet] = (),
    warnings: list[str] | None = None,
) -> RunResult:
    """Score every (method, perspective, size, seed) cell on the test split.

    Each reference is tokenized once per perspective and shared by every method
    and cell. Built-in candidates do not depend on the training subset, so they
    are scored once per (perspective, dialog) and reused in every (size, seed) cell.
    An external method is scored cell by cell, each dialog once for every
    perspective: each side of its prediction is tokenized once, and the full view
    scores its sides' tokens. Runs and warnings come in method, perspective, size,
    seed, dialog order, and under strict_missing the first missing dialog in that
    order is the error.

    Warnings are appended to `warnings` (a new list if None), which is RunResult.warnings,
    so a caller that passes its own list also sees them when scoring fails.
    """
    warnings = [] if warnings is None else warnings
    config.validate()
    if corpus.gold is None:
        raise ExperimentError("corpus has no gold summaries; scoring needs references")
    if corpus.split is None:
        raise ExperimentError("corpus has no split assignment")

    dialogs = corpus.by_id()
    test_ids = [did for did in corpus.dialog_ids(Split.TEST) if did in corpus.gold]
    gold_missing = len(corpus.dialog_ids(Split.TEST)) - len(test_ids)
    if gold_missing:
        warnings.append(f"{gold_missing} test dialog(s) have no gold summary and are not scored")
    if not test_ids:
        raise ExperimentError("no test dialogs with gold summaries to score")

    _check_population(len(corpus.dialog_ids(Split.TRAIN)), config.sizes, config.cap_to_population)

    ext_index = index_prediction_sets(external)

    requested = [
        (method, size, seed)
        for method in config.methods
        if parse_builtin_method(method) is None
        for size in config.sizes
        for seed in config.seeds
    ]
    wanted = set(requested)
    unrequested = [cell for cell in ext_index if cell not in wanted]
    if unrequested:
        warnings.append(
            f"{len(unrequested)} prediction set(s) are for cells the config does not request "
            f"and are not scored, first: {_cell_text(unrequested[0])}"
        )
    missing_cells = [cell for cell in requested if cell not in ext_index]
    if missing_cells:
        raise MissingCellsError(missing_cells)
    scored_ids = set(test_ids)
    stray = [(did, cell) for cell in requested for did in ext_index[cell].entries if did not in scored_ids]
    if stray:
        did, cell = stray[0]
        warnings.append(
            f"{len(stray)} prediction entry(ies) are for dialogs that are not scored, "
            f"first: dialog {did!r} in {_cell_text(cell)}"
        )

    prepared = {
        perspective: {
            did: prepare_reference(_gold_reference(corpus.gold[did], perspective), config.tokenizer)
            for did in test_ids
        }
        for perspective in config.perspectives
    }
    views = [perspective.roles for perspective in config.perspectives]
    roles = [role for role in SpeakerRole if any(role in view for view in views)]
    runs: Runs = {}
    for method in config.methods:
        spec = parse_builtin_method(method)
        if spec is None:
            cells = {
                (size, seed): _score_dialogs(
                    partial(_prediction_tokens, ext_index[(method, size, seed)].entries, method, roles, views, config),
                    prepared, config.tokenizer,
                )
                for size in config.sizes
                for seed in config.seeds
            }
        for perspective in config.perspectives:
            if spec is not None and not spec.applies_to(perspective):
                warnings.append(
                    f"{method}: not applicable to the {perspective.value} perspective, row skipped"
                )
                continue
            label = f"{method}/{perspective.value}"
            if spec is not None:
                builtin_scores, missing = _score_dialogs(
                    lambda did: [c.text if (c := builtin_candidate(dialogs[did], spec, perspective, config.prefixes,
                                                                  config.min_tokens)) else None],
                    {perspective: prepared[perspective]}, config.tokenizer,
                )[perspective]
                _missing(missing, f"{label}: no candidate for dialog {{}}", config, warnings)
            for size in config.sizes:
                for seed in config.seeds:
                    if spec is not None:
                        scores = builtin_scores
                    else:
                        scores, missing = cells[(size, seed)][perspective]
                        message = f"{label}: no prediction for dialog {{}} (size={size}, seed={seed})"
                        _missing(missing, message, config, warnings)
                    if scores:
                        runs[(method, perspective, size, seed)] = scores
                    else:
                        warnings.append(f"{label}: no dialog scored at size={size}, seed={seed}")

    if not runs:
        raise ExperimentError("no dialog scored in any cell")
    return RunResult(table_from_per_dialog(runs), runs, warnings)


# --- report emission ------------------------------------------------------------


def format_cell(cell: AggregateCell | None) -> str:
    """Render "mean (+/-deviation)" on the 0-100 scale; zero deviation is omitted.

    A missing cell (no run scored a dialog) renders "-".
    """
    if cell is None:
        return "-"
    mean = f"{cell.mean * 100:.2f}"
    if cell.deviation == 0:
        return mean
    return f"{mean} (±{cell.deviation * 100:.2f})"


def _grouped_rows(table: ResultTable):
    perspectives: list[Perspective] = []
    methods: list[str] = []
    for method, perspective, _ in table.rows:
        if perspective not in perspectives:
            perspectives.append(perspective)
        if method not in methods:
            methods.append(method)
    for perspective in perspectives:
        for variant in VARIANTS:
            present = [m for m in methods if (m, perspective, variant) in table.rows]
            if present:
                yield perspective, variant, present


def emit_report(table: ResultTable, format: str = "md") -> str:
    """Render the result table; methods as rows, sizes as columns."""
    if not table.rows:
        raise ExperimentError("cannot emit a report for an empty table")
    if format == "md":
        return _emit_markdown(table)
    if format == "csv":
        return _emit_csv(table)
    raise ExperimentError(f"unknown report format {format!r}")


def _emit_markdown(table: ResultTable) -> str:
    out = ["# ROUGE F-measure by training-set size", ""]
    for perspective, variant, methods in _grouped_rows(table):
        out.append(f"## {PERSPECTIVE_LABELS[perspective]} - {VARIANT_LABELS[variant]}")
        out.append("")
        out.append("| Method | " + " | ".join(str(s) for s in table.sizes) + " |")
        out.append("| --- | " + " | ".join("---" for _ in table.sizes) + " |")
        for method in methods:
            cells = table.rows[(method, perspective, variant)]
            rendered = " | ".join(format_cell(cells.get(s)) for s in table.sizes)
            out.append(f"| {method} | {rendered} |")
        out.append("")
    return "\n".join(out)


def _emit_csv(table: ResultTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["perspective", "rouge", "method"] + [str(s) for s in table.sizes])
    for perspective, variant, methods in _grouped_rows(table):
        for method in methods:
            cells = table.rows[(method, perspective, variant)]
            writer.writerow(
                [perspective.value, VARIANT_LABELS[variant], method]
                + [format_cell(cells.get(s)) for s in table.sizes]
            )
    return buf.getvalue()


# --- per-dialog dump -------------------------------------------------------------

PER_DIALOG_COLUMNS = (
    "dialog_id",
    "method",
    "perspective",
    "size",
    "seed",
    "r1_p",
    "r1_r",
    "r1_f",
    "r2_f",
    "rl_f",
)


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it as one field of a row, quoted when it holds a comma,
    a quote, "\n" or "\r". (With "\n" line ends, csv.writer would leave a lone "\r"
    unquoted, and csv.reader would read it as the end of the row.)"""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((text, ""))
    return buf.getvalue()[:-3]


class _ScoreTexts(dict):
    """score float -> its repr, learned on first sight. A zero is never stored: 0.0 and
    -0.0 are equal and hash alike, so a stored zero would give the other its repr."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def write_per_dialog_csv(runs: Runs, path: str | Path) -> None:
    """Full-precision dump of a `Runs` dict ('.' decimal, no locale), one run at a time.

    Scores are written with repr, computed once per distinct score of the call; a zero is
    formatted each time, since 0.0 and -0.0 are equal but their reprs differ. A scores
    dict's text is built once, as the pieces between its rows' key columns, and reused by
    every run that shares the dict.
    """
    fields: dict[str, str] = {}  # dialog id or method -> its csv text
    pieces: dict[int, list[str]] = {}  # id of a scores dict that `runs` holds -> its text pieces
    text_of = _ScoreTexts().__getitem__

    def field(text: str) -> str:
        quoted = fields.get(text)
        if quoted is None:
            quoted = fields[text] = _csv_field(text)
        return quoted

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(PER_DIALOG_COLUMNS) + "\n")
        for (method, perspective, size, seed), scores in runs.items():
            run_pieces = pieces.get(id(scores))
            if run_pieces is None:
                # "<id>," before the first row's key, "<scores>\n<next id>," between rows
                run_pieces = pieces[id(scores)] = [""]
                for did, row_scores in scores.items():
                    run_pieces[-1] += field(did) + ","
                    run_pieces.append(",".join(map(text_of, row_scores)) + "\n")
            fh.write(f"{field(method)},{perspective.value},{size},{seed},".join(run_pieces))


def _unit_score(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{text!r} is not a score in [0, 1]")
    return value


def _parse_columns(columns: Sequence[str], parsers, values: Sequence[str], line: int) -> list:
    """Parse each value with its column's parser; a failure names the line and the column."""
    parsed = []
    for column, parse, value in zip(columns, parsers, values):
        try:
            parsed.append(parse(value))
        except ValueError as exc:
            raise ParseError(line, f"{column}: {exc}") from None
    return parsed


_KEY_COLUMNS, _SCORE_COLUMNS = PER_DIALOG_COLUMNS[1:5], PER_DIALOG_COLUMNS[5:]
_KEY_PARSERS = (str, Perspective, int, int)
_SCORE_PARSERS = (_unit_score,) * len(_SCORE_COLUMNS)


def _text_pieces(method: str, rows: Sequence[tuple[str, tuple[str, ...]]]) -> list[bytes]:
    """The UTF-8 pieces that `b"<key text>,".join` makes into the dump rows (dialog id, score
    texts) under a key of `method`, as write_per_dialog_csv writes them; () when the method or
    a field holds a comma, quote, NUL, CR or LF (a size or seed that int() reads holds none)."""
    pieces = [""]  # "<id>," before the first row's key, "<scores>\n<next id>," after it
    for did, texts in rows:
        pieces[-1] += did + ","
        pieces.append(",".join(texts) + "\n")
    text = method + "".join(pieces)
    plain = '"' not in text and "\0" not in text and "\r" not in text and text.count(",") == 5 * len(rows)
    return [piece.encode() for piece in pieces] if plain and text.count("\n") == len(rows) else ()


def read_per_dialog_csv(path: str | Path) -> Runs:
    """Read a dump written by write_per_dialog_csv into a `Runs` dict; a malformed row, or
    a dialog that repeats within its run, is an error naming its line, raised in file order.

    The rows come in blocks of consecutive rows with the same key text, so normally one run
    per block. When the header is the columns as written and a block that opens a run starts
    with the first dialog id and score text of the block that last opened a run of its
    (method, perspective), as a built-in method's runs do, its other lines are compared with
    that block's in one read of the input (`LineSource.take`). If they are equal and no field
    holds a comma, quote, NUL, CR or LF, the run shares that block's scores dict, and a later
    row of its key re-opens the run; otherwise the bytes read are the next lines. Every other
    row is parsed and checked as it is read, so a fault is named where the row-by-row reader
    names it. A score's value is computed once per distinct text of the call (so "-0.0" keeps
    its sign after "0.0"), and taken from a row only once all five of its score texts parse,
    so a bad text is named on every row that holds it. A run that re-opens gets its own copy
    of its scores dict first, so no other run's scores change.
    """
    runs: Runs = {}
    # (method, perspective) text -> the last block that opened a run of it with a scores dict of its
    # own: its rows' (dialog id, score text), only the first once a block is compared with it, the
    # other rows' `_text_pieces` from then on, and its scores dict
    opened: dict[tuple[str, ...], list] = {}
    copied: set[RunKey] = set()  # runs whose scores dict no other run or block holds
    values: dict[str, float] = {}  # score text of a row that parsed -> its value
    key_text, what = None, "per-dialog dump"  # the current block's key text
    with read_lines(path, newline="") as lines:
        header, pick, line = csv_header(lines, what, PER_DIALOG_COLUMNS)
        compare = header == list(PER_DIALOG_COLUMNS)
        width = len(header)
        rows = csv_body(lines, what, width, pick, line)
        while True:
            for line, record in rows:
                if record[1:5] != key_text:
                    key = tuple(_parse_columns(_KEY_COLUMNS, _KEY_PARSERS, record[1:5], line))
                    scores = runs.get(key)
                    last = opened.get(record[1:3]) if scores is None and compare else None
                    if last is not None and last[0][0] == (record[0], record[5:]):
                        if last[1] is None:
                            last[0], last[1] = last[0][:1], _text_pieces(record[1], last[0][1:])
                        sep = ",".join(record[1:5]) + ","
                        if last[1] and "\r" not in sep and "\n" not in sep and lines.take(sep.encode().join(last[1]), len(last[1]) - 1):
                            runs[key], key_text = last[2], None
                            rows = csv_body(lines, what, width, pick, line + len(last[1]) - 1)
                            break
                    key_text, block = record[1:5], []
                    if scores is None:
                        scores = runs[key] = {}
                        opened[key_text[:2]] = [block, None, scores]
                    elif key not in copied:
                        scores = runs[key] = dict(scores)
                        copied.add(key)
                did, score_text = record[0], record[5:]
                if did in scores:
                    method, perspective, size, seed = key_text
                    raise ParseError(line, f"dialog {did!r} repeats in run ({method}, {perspective}, size={size}, seed={seed})")
                try:
                    parsed = tuple(map(values.__getitem__, score_text))
                except KeyError:
                    parsed = tuple(_parse_columns(_SCORE_COLUMNS, _SCORE_PARSERS, score_text, line))
                    values.update(zip(score_text, parsed))
                scores[did] = parsed
                block.append((did, score_text))
            else:
                return runs


def table_from_per_dialog(runs: Runs) -> ResultTable:
    """Aggregate a `Runs` dict's per-dialog scores into the report table, for `score` and
    `report` alike.

    A run's score is the mean over its dialogs, computed once per scores dict that
    runs share; a cell aggregates its runs' scores in ascending seed order. A run
    with no scored dialog is not stored, so it adds no score, and a (method,
    perspective, size) with no run has no cell.
    """
    if not runs:
        raise ExperimentError("per-dialog dump is empty")
    means: dict[int, tuple[float, float, float]] = {}  # id of a scores dict that `runs` holds -> f means
    seeds: dict[tuple[str, Perspective, int], list[tuple[int, tuple[float, float, float]]]] = {}
    for (method, perspective, size, seed), scores in runs.items():
        run_means = means.get(id(scores))
        if run_means is None:
            columns = list(zip(*scores.values()))[2:]  # r1_f, r2_f, rl_f
            run_means = means[id(scores)] = tuple(math.fsum(column) / len(scores) for column in columns)
        seeds.setdefault((method, perspective, size), []).append((seed, run_means))

    table_rows: dict[tuple[str, Perspective, str], dict[int, AggregateCell]] = {}
    for (method, perspective, size), cell_runs in seeds.items():
        cell_runs.sort(key=itemgetter(0))
        for variant, variant_means in zip(VARIANTS, zip(*(run_means for _, run_means in cell_runs))):
            table_rows.setdefault((method, perspective, variant), {})[size] = aggregate(variant_means)
    return ResultTable(sizes=sorted({size for _, _, size in seeds}), rows=table_rows)


# --- post-process rate curve ------------------------------------------------------


def rate_curve(candidates_per_size: Mapping[int, Sequence[CandidateSummary]]) -> dict[int, float]:
    """Post-process rate per training size, for the corrected-summaries curve."""
    rates: dict[int, float] = {}
    for size in sorted(candidates_per_size):
        candidates = candidates_per_size[size]
        if not candidates:
            raise ExperimentError(f"no candidates at size {size}")
        rates[size] = sum(c.post_processed for c in candidates) / len(candidates)
    return rates


def rate_curve_csv(rates: Mapping[int, float]) -> str:
    lines = ["size,rate"]
    for size in sorted(rates):
        lines.append(f"{size},{rates[size]!r}")
    return "\n".join(lines) + "\n"


# --- experiment config files -------------------------------------------------------


class ConfigPaths(NamedTuple):
    corpus: str | None = None
    split: str | None = None
    predictions: Sequence[str] = ()


# Each config key's type, a list key as [item type], in the order parse_config checks them
_CONFIG_SCHEMA: dict[str, type | list[type]] = {
    "methods": [str],
    "perspectives": [str],
    "sizes": [int],
    "n_seeds": int,
    "tokenizer": dict,
    "min_tokens": int,
    "cap_to_population": bool,
    "strict_missing": bool,
    "prefix_customer": str,
    "prefix_agent": str,
    "corpus": str,
    "split": str,
    "predictions": [str],
}
_REQUIRED_CONFIG_KEYS = ("methods", "perspectives")
_PATH_CONFIG_KEYS = ("corpus", "split", "predictions")
_KIND_NAMES = {int: "an integer", bool: "true or false", str: "a string", dict: "an object"}


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a bool is not an int."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def parse_config(document: dict) -> tuple[ExperimentConfig, ConfigPaths]:
    """Check `document` against _CONFIG_SCHEMA; an absent key keeps its field's default."""
    unknown = set(document) - _CONFIG_SCHEMA.keys()
    if unknown:
        raise ExperimentError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    for key, kind in _CONFIG_SCHEMA.items():
        if key not in document:
            if key in _REQUIRED_CONFIG_KEYS:
                raise ExperimentError(f"config missing required key {key!r}")
        elif isinstance(kind, list):
            value = document[key]
            if not isinstance(value, (list, tuple)) or not all(_is_a(item, kind[0]) for item in value):
                raise ExperimentError(f"config key {key!r} must be a list of {kind[0].__name__} values, got {value!r}")
        elif not _is_a(document[key], kind):
            raise ExperimentError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {document[key]!r}")
    for key in _PATH_CONFIG_KEYS:
        value = document.get(key, ())
        for name in [value] if isinstance(value, str) else value:
            if not name:  # it would name the config's directory
                raise ExperimentError(f"config key {key!r} must not be empty")
            if "\0" in name:  # open() would refuse it without naming the config
                raise ExperimentError(f"config key {key!r} must not contain a NUL character, got {name!r}")
    values = dict(document)
    try:
        values["perspectives"] = [Perspective(p) for p in document["perspectives"]]
    except ValueError as exc:
        raise ExperimentError(f"bad perspective in config: {exc}") from exc
    if "tokenizer" in document:
        try:
            values["tokenizer"] = TokenizerConfig(**document["tokenizer"])
        except TypeError as exc:
            raise ExperimentError(f"bad tokenizer settings in config: {exc}") from exc
        for name, value in document["tokenizer"].items():
            if not isinstance(value, bool):
                raise ExperimentError(f"config tokenizer setting {name!r} must be true or false, got {value!r}")
    if "sizes" in document:
        values["sizes"] = tuple(document["sizes"])
    prefixes = {role: values.pop(f"prefix_{role}") for role in ("customer", "agent") if f"prefix_{role}" in values}
    paths = ConfigPaths(**{key: values.pop(key) for key in _PATH_CONFIG_KEYS if key in values})
    config = ExperimentConfig(prefixes=PrefixConfig(**prefixes), **values)
    config.validate()
    return config, paths


def load_config_file(path: str | Path) -> tuple[ExperimentConfig, ConfigPaths]:
    """Load a config document; relative paths resolve against the config file, and every
    error about its contents starts with its path."""
    path = Path(path)
    try:
        with read_lines(path) as lines:
            text = "".join(lines)
            document = decode_json(text)
            if "\\u" in text:
                reject_lone_surrogates(text)
        if not isinstance(document, dict):
            raise ExperimentError("expected a JSON object")
        config, paths = parse_config(document)
    except ExperimentError as exc:
        raise ExperimentError(f"{path}: {exc}") from exc
    resolved = [None if p is None else str(path.parent / p) for p in (paths.corpus, paths.split, *paths.predictions)]
    return config, ConfigPaths(resolved[0], resolved[1], resolved[2:])
