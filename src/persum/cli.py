"""Single executable exposing the pipeline as subcommands.

Exit codes: 0 success, 1 usage error, 2 data/validation error. All randomness
is surfaced through --seed flags; reruns on identical inputs write identical
bytes.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from pathlib import Path

from .corpus import (
    Corpus,
    DEFAULT_SPLIT_RATIOS,
    CorpusError,
    ParseError,
    SpeakerRole,
    Split,
    check_ratios,
    encode_json_line,
    read_corpus,
    read_lines,
    read_tweet_csv,
    reconstruct_threads,
    split_corpus,
    with_split_file,
    write_corpus,
)
from .experiment import (
    DEFAULT_N_SEEDS,
    DEFAULT_SIZES,
    ExperimentError,
    check_sizes,
    emit_report,
    index_prediction_sets,
    load_config_file,
    rate_curve,
    rate_curve_csv,
    read_per_dialog_csv,
    run_experiment,
    sample_nested_subsets,
    table_from_per_dialog,
    write_per_dialog_csv,
    write_subset_files,
)
from .summarize import (
    DEFAULT_PREFIXES,
    Perspective,
    PrefixConfig,
    builtin_candidate,
    load_predictions,
    parse_builtin_method,
    prediction_candidate,
)
from .weaklabel import DEFAULT_MIN_TOKENS, HeuristicKind, weaklabel_corpus, write_weak_pairs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the documented exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not sizes:
        raise argparse.ArgumentTypeError(f"expected at least one size, got {text!r}")
    try:
        check_sizes(sizes)
    except ExperimentError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from exc
    return sizes


def _ratios(text: str) -> tuple[float, float, float]:
    """train,val,test split ratios: three numbers in [0, 1] that sum to 1."""
    try:
        ratios = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc
    try:
        check_ratios(ratios)
    except CorpusError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from exc
    return ratios


def _text(text: str) -> str:
    """An argument that is UTF-8 text: bytes that are not UTF-8 reach argv as lone
    surrogates, which no output file can hold."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"expected UTF-8 text, got {text!r}") from None
    return text


def _shown(path: str | Path) -> str:
    """`path` for printing: a byte that is not UTF-8, which reaches argv as a lone
    surrogate, is shown as an escape such as \\xff."""
    return str(path).encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)

    return parse


@contextmanager
def _outputs(*targets: str | Path):
    """Write the files `targets` all or not at all. The body writes each to the `<target>.tmp`
    handed out for it, and all are renamed onto their targets once it returns. A target that
    is a directory, or one file with another target or temporary, is refused first, as is a
    temporary that is a directory; on any error the temporaries go and an OSError names the target."""
    temps = [f"{target}.tmp" for target in targets]
    files = [os.path.realpath(path) for path in (*targets, *temps)]
    for target, temp, file in zip(targets, temps, files):
        if files.count(file) > 1:  # the target named twice, or another target's temporary
            raise OSError(f"cannot write {_shown(target)}: another output of the command uses the same file")
        if os.path.isdir(target):
            raise OSError(f"cannot write {_shown(target)}: it is a directory")
        if os.path.isdir(temp):
            raise OSError(f"cannot write {_shown(target)}: {_shown(temp)} is a directory")
    try:
        yield temps
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    except OSError as exc:
        if exc.filename in temps:
            exc.filename = os.fspath(targets[temps.index(exc.filename)])
        raise
    finally:
        for temp in temps:
            with suppress(OSError):  # a failed cleanup never replaces the error being raised
                os.unlink(temp)


def _write_text(text: str, path: str | Path) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="persum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert raw conversation data to canonical corpus JSONL")
    p.add_argument("--format", choices=["kaggle-csv", "dialog-jsonl"], required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="assign train/val/test, seeded or from a split file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=_int_at_least(0), help="default 0")
    p.add_argument("--ratios", type=_ratios, help="default 0.8,0.1,0.1")
    p.add_argument("--split-file", help="CSV with columns dialog_id, split; excludes --seed and --ratios")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("weaklabel", help="emit weak (source, target) pairs for one perspective")
    p.add_argument("--corpus", required=True)
    p.add_argument("--perspective", choices=["customer", "agent"], required=True)
    p.add_argument("--heuristic", choices=["lead", "long"], required=True)
    p.add_argument("--masked", action="store_true")
    p.add_argument("--min-tokens", type=_int_at_least(1), default=DEFAULT_MIN_TOKENS)
    p.add_argument("--exclude", help="file with one dialog id per line to leave out")
    p.add_argument("--output", required=True)
    p.add_argument("--coverage", help="also write the coverage counters to this JSON file")
    p.set_defaults(func=cmd_weaklabel)

    p = sub.add_parser("subsets", help="write nested few-shot training subsets per seed")
    p.add_argument("--corpus", required=True, help="corpus JSONL with split assignment")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--sizes", type=_sizes, default=DEFAULT_SIZES)
    p.add_argument("--seeds", type=_int_at_least(1), default=DEFAULT_N_SEEDS, help="number of seeds (0..N-1)")
    p.add_argument("--cap-to-population", action="store_true")
    p.set_defaults(func=cmd_subsets)

    p = sub.add_parser("summarize", help="run a built-in heuristic summarizer on the test split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--perspective", choices=["customer", "agent", "full"], required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--prefix-customer", type=_text, default=DEFAULT_PREFIXES.customer)
    p.add_argument("--prefix-agent", type=_text, default=DEFAULT_PREFIXES.agent)
    p.add_argument("--min-tokens", type=_int_at_least(1), default=DEFAULT_MIN_TOKENS)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("score", help="run the experiment and write report + score dump")
    p.add_argument("--config", required=True, help="experiment config; names the corpus, split and predictions")
    p.add_argument("--report", choices=["md", "csv"], default="md")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="re-emit a report from a per-dialog score dump")
    p.add_argument("--per-dialog", required=True)
    p.add_argument("--format", choices=["md", "csv"], default="md")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("rate-curve", help="post-process rate per training size")
    p.add_argument("--predictions", nargs="+", required=True, help="prediction files of one method")
    p.add_argument("--perspective", choices=["customer", "agent", "full"], required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_rate_curve)

    return parser


def cmd_ingest(args) -> int:
    if args.format == "kaggle-csv":
        dialogs, report = reconstruct_threads(read_tweet_csv(args.input))
        corpus = Corpus(dialogs)
        _print_warnings([f"{key}: {value}" for key, value in report._asdict().items() if value])
    else:
        corpus = read_corpus(args.input)
    with _outputs(args.output) as (path,):
        write_corpus(corpus, path)
    print(f"dialogs: {len(corpus.dialogs)}")
    return EXIT_OK


def cmd_split(args) -> int:
    if args.split_file and (args.seed is not None or args.ratios is not None):
        print("persum split: error: --seed and --ratios are not allowed with --split-file", file=sys.stderr)
        return EXIT_USAGE
    corpus = read_corpus(args.corpus)
    if args.split_file:
        corpus = with_split_file(corpus, args.split_file)
    else:
        corpus = split_corpus(corpus, args.ratios or DEFAULT_SPLIT_RATIOS, args.seed or 0)
    with _outputs(args.output) as (path,):
        write_corpus(corpus, path)
    counts = Counter(corpus.split.values())
    print(" ".join(f"{split.value}={counts[split]}" for split in Split))
    return EXIT_OK


def cmd_weaklabel(args) -> int:
    corpus = read_corpus(args.corpus)
    exclude: set[str] = set()
    if args.exclude:
        with read_lines(args.exclude) as lines:
            exclude = {line.strip() for line in lines if line.strip()}
    role, heuristic = SpeakerRole(args.perspective), HeuristicKind(args.heuristic)
    pairs, report = weaklabel_corpus(corpus, role, heuristic, args.masked, exclude, args.min_tokens)
    coverage = encode_json_line(report._asdict())
    targets = [args.output, args.coverage] if args.coverage else [args.output]
    with _outputs(*targets) as paths:
        write_weak_pairs(pairs, paths[0], role, heuristic, args.masked)
        if args.coverage:
            _write_text(coverage + "\n", paths[1])
    print(coverage)
    return EXIT_OK


def cmd_subsets(args) -> int:
    corpus = read_corpus(args.corpus)
    if corpus.split is None:
        raise CorpusError("corpus has no split assignment; run `persum split` first")
    train_ids = corpus.dialog_ids(Split.TRAIN)
    families = [
        sample_nested_subsets(train_ids, args.sizes, seed, args.cap_to_population)
        for seed in range(args.seeds)
    ]
    write_subset_files(families, args.output_dir)
    print(f"wrote {len(families)} seed(s) x {len(args.sizes)} size(s) under {_shown(args.output_dir)}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    """Run the built-in --method on the dialogs summarizers run on: the test split when
    one is assigned, else every dialog."""
    perspective = Perspective(args.perspective)
    spec = parse_builtin_method(args.method)
    if spec is None:
        raise ExperimentError(f"{args.method!r} is not a built-in method; supply its outputs as prediction files")
    try:
        spec.require(perspective)
    except ValueError as exc:
        raise ExperimentError(str(exc)) from None
    corpus = read_corpus(args.corpus)
    prefixes = PrefixConfig(args.prefix_customer, args.prefix_agent)
    candidates = [
        (dialog.id, builtin_candidate(dialog, spec, perspective, prefixes, args.min_tokens))
        for dialog in corpus.dialogs
        if corpus.split is None or corpus.split[dialog.id] == Split.TEST
    ]
    lines = [encode_json_line({"dialog_id": dialog_id, "perspective": perspective.value, "method": args.method,
                               **cand._asdict()}) + "\n" for dialog_id, cand in candidates if cand is not None]
    with _outputs(args.output) as (path,):
        _write_text("".join(lines), path)
    print(f"candidates: {len(lines)} skipped: {len(candidates) - len(lines)}")
    return EXIT_OK


def _print_warnings(messages: list[str]) -> None:
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


def cmd_score(args) -> int:
    config, paths = load_config_file(args.config)
    if paths.corpus is None:
        raise ExperimentError(f"{Path(args.config)}: config has no 'corpus'")
    corpus = read_corpus(paths.corpus)
    if paths.split is not None:
        corpus = with_split_file(corpus, paths.split)
    external = [load_predictions(p) for p in paths.predictions]

    warnings: list[str] = []
    try:
        result = run_experiment(corpus, config, external, warnings)
    finally:
        _print_warnings(warnings)
    del corpus, external  # the result holds what the outputs need; this lowers the write's peak

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_name = "report.md" if args.report == "md" else "report.csv"
    with _outputs(out_dir / report_name, out_dir / "per_dialog_scores.csv") as (report_path, dump_path):
        _write_text(emit_report(result.table, args.report), report_path)
        write_per_dialog_csv(result.runs, dump_path)
    print(f"wrote {report_name} and per_dialog_scores.csv to {_shown(out_dir)}")
    return EXIT_OK


def cmd_report(args) -> int:
    runs = read_per_dialog_csv(args.per_dialog)
    if not runs:
        raise ParseError(None, "per-dialog dump is empty", args.per_dialog)
    table = table_from_per_dialog(runs)
    with _outputs(args.output) as (path,):
        _write_text(emit_report(table, args.format), path)
    print(f"wrote {_shown(args.output)}")
    return EXIT_OK


def cmd_rate_curve(args) -> int:
    """Pool the candidates of each training size's files, every seed's alike, and write
    the share of them that the prefix rule fired on."""
    perspective = Perspective(args.perspective)
    sets = index_prediction_sets(load_predictions(path) for path in args.predictions).values()
    files = list(zip(args.predictions, sets))  # one set per file, in order
    first_file = {pred.method: path for path, pred in reversed(files)}
    if len(first_file) > 1:
        mixed = ", ".join(f"{method} in {path}" for method, path in sorted(first_file.items()))
        raise ExperimentError(f"prediction files mix methods: {mixed}")
    per_size: dict[int, list] = {}
    for _, pred in files:
        bucket = per_size.setdefault(pred.training_size, [])
        for entry in pred.entries.values():
            cand = prediction_candidate(entry, pred.method, perspective)
            if cand is not None:
                bucket.append(cand)
    for size in sorted(per_size):
        if not per_size[size]:
            names = ", ".join(path for path, pred in files if pred.training_size == size)
            raise ExperimentError(f"no {perspective.value} candidates at size {size} in {names}")
    rates = rate_curve(per_size)
    with _outputs(args.output) as (path,):
        _write_text(rate_curve_csv(rates), path)
    print(f"wrote {_shown(args.output)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # persum's values hold no reference cycles, so reference counting frees them and the
    # cyclic collector's passes over them find nothing; it is paused for the command
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return EXIT_DATA
    except (CorpusError, ExperimentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if collecting:
            gc.enable()


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
