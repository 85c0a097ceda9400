"""Single executable exposing the pipeline as subcommands.

Exit codes: 0 success, 1 usage error, 2 data/validation error. All randomness
is surfaced through --seed flags; reruns on identical inputs write identical
bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

from .corpus import (
    Corpus,
    CorpusError,
    ParseError,
    SpeakerRole,
    Split,
    _naming_file,
    check_ratios,
    encode_json_line,
    read_corpus,
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


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)

    return parse



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
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--ratios", type=_ratios, default=(0.8, 0.1, 0.1))
    p.add_argument("--split-file", help="CSV with columns dialog_id, split; overrides --seed")
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
    p.add_argument("--prefix-customer", default=None)
    p.add_argument("--prefix-agent", default=None)
    p.add_argument("--min-tokens", type=_int_at_least(1), default=DEFAULT_MIN_TOKENS)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("score", help="run the experiment and write report + score dump")
    p.add_argument("--corpus", help="corpus JSONL; defaults to the config's corpus path")
    p.add_argument("--config", required=True)
    p.add_argument("--split", help="split CSV applied on top of the corpus")
    p.add_argument("--predictions", nargs="*", default=[], help="prediction JSONL files")
    p.add_argument("--report", choices=["md", "csv"], default="md")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--subsets", action="store_true", help="also write subsets/<seed>/<size>.txt")
    p.add_argument("--prefix-customer", default=None, help="override the config's customer prefix")
    p.add_argument("--prefix-agent", default=None, help="override the config's agent prefix")
    p.add_argument("--strict-missing", action="store_true", help="error on unscorable dialogs")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("report", help="re-emit a report from a per-dialog score dump")
    p.add_argument("--per-dialog", required=True)
    p.add_argument("--format", choices=["md", "csv"], default="md")
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("rate-curve", help="post-process rate per training size")
    p.add_argument("--output", required=True)
    p.add_argument("--perspective", choices=["customer", "agent", "full"], required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--predictions", nargs="*", default=[], help="prediction files of one method")
    p.add_argument("--corpus", help="with --method: measure a built-in method instead")
    p.add_argument("--method")
    source.add_argument(
        "--sizes", type=_sizes, default=DEFAULT_SIZES,
        help="training sizes to report; applies to --corpus/--method only",
    )
    p.add_argument("--prefix-customer", default=None)
    p.add_argument("--prefix-agent", default=None)
    p.set_defaults(func=cmd_rate_curve)

    return parser


def _prefixes_from_args(args, base: PrefixConfig = PrefixConfig()) -> PrefixConfig:
    """--prefix-customer/--prefix-agent where given, else the prefixes of `base`."""
    given = {"customer": args.prefix_customer, "agent": args.prefix_agent}
    return base._replace(**{role: prefix for role, prefix in given.items() if prefix is not None})


def _test_dialogs(corpus: Corpus):
    """Dialogs summarizers run on: the test split when assigned, else everything."""
    if corpus.split is None:
        return list(corpus.dialogs)
    return [d for d in corpus.dialogs if corpus.split[d.id] == Split.TEST]


def cmd_ingest(args) -> int:
    if args.format == "kaggle-csv":
        dialogs, report = reconstruct_threads(read_tweet_csv(args.input))
        corpus = Corpus(dialogs)
        for key, value in report._asdict().items():
            if value:
                print(f"warning: {key}: {value}", file=sys.stderr)
    else:
        corpus = read_corpus(args.input)
    write_corpus(corpus, args.output)
    print(f"dialogs: {len(corpus.dialogs)}")
    return EXIT_OK


def cmd_split(args) -> int:
    corpus = read_corpus(args.corpus)
    if args.split_file:
        corpus = with_split_file(corpus, args.split_file)
    else:
        corpus = split_corpus(corpus, ratios=args.ratios, seed=args.seed)
    write_corpus(corpus, args.output)
    counts = Counter(corpus.split.values())
    print(" ".join(f"{split.value}={count}" for split, count in counts.items()))
    return EXIT_OK


def cmd_weaklabel(args) -> int:
    corpus = read_corpus(args.corpus)
    exclude: set[str] = set()
    if args.exclude:
        with open(args.exclude, "r", encoding="utf-8-sig") as fh, _naming_file(args.exclude):
            exclude = {line.strip() for line in fh if line.strip()}
    role, heuristic = SpeakerRole(args.perspective), HeuristicKind(args.heuristic)
    pairs, report = weaklabel_corpus(corpus, role, heuristic, args.masked, exclude, args.min_tokens)
    write_weak_pairs(pairs, args.output, role, heuristic, args.masked)
    coverage = encode_json_line(report._asdict())
    print(coverage)
    if args.coverage:
        Path(args.coverage).write_text(coverage + "\n", encoding="utf-8")
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
    print(f"wrote {len(families)} seed(s) x {len(args.sizes)} size(s) under {args.output_dir}")
    return EXIT_OK


def cmd_summarize(args) -> int:
    spec = parse_builtin_method(args.method)
    if spec is None:
        raise ExperimentError(
            f"{args.method!r} is not a built-in method; supply its outputs as prediction files"
        )
    perspective = Perspective(args.perspective)
    spec.require(perspective)
    corpus = read_corpus(args.corpus)
    prefixes = _prefixes_from_args(args)
    produced = 0
    skipped = 0
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        for dialog in _test_dialogs(corpus):
            cand = builtin_candidate(dialog, spec, perspective, prefixes, args.min_tokens)
            if cand is None:
                skipped += 1
                continue
            record = {"dialog_id": dialog.id, "perspective": perspective.value, "method": spec.name, **cand._asdict()}
            fh.write(encode_json_line(record) + "\n")
            produced += 1
    print(f"candidates: {produced} skipped: {skipped}")
    return EXIT_OK


def _print_warnings(messages: list[str]) -> None:
    for message in messages:
        print(f"warning: {message}", file=sys.stderr)


def cmd_score(args) -> int:
    config, paths = load_config_file(args.config)
    prefixes = _prefixes_from_args(args, config.prefixes)
    config = config._replace(prefixes=prefixes, strict_missing=config.strict_missing or args.strict_missing)
    corpus_path = args.corpus or paths.corpus
    if not corpus_path:
        raise ExperimentError("no corpus given: pass --corpus or set 'corpus' in the config")
    corpus = read_corpus(corpus_path)
    split_path = args.split or paths.split
    if split_path:
        corpus = with_split_file(corpus, split_path)
    prediction_paths = list(paths.predictions) + list(args.predictions)
    external = [load_predictions(p) for p in prediction_paths]

    try:
        result = run_experiment(corpus, config, external)
    except ExperimentError as exc:
        _print_warnings(exc.warnings)
        raise
    _print_warnings(result.warnings)

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_name = "report.md" if args.report == "md" else "report.csv"
    # both outputs go to temporary names and are renamed only once both are whole
    report_path, dump_path = (out_dir / f"{name}.tmp" for name in (report_name, "per_dialog_scores.csv"))
    try:
        report_path.write_text(emit_report(result.table, args.report), encoding="utf-8")
        write_per_dialog_csv(result.per_dialog, dump_path)
        os.replace(report_path, out_dir / report_name)
        os.replace(dump_path, out_dir / "per_dialog_scores.csv")
    finally:
        report_path.unlink(missing_ok=True)
        dump_path.unlink(missing_ok=True)
    if args.subsets:
        write_subset_files(result.families, out_dir / "subsets")
    print(f"wrote {report_name} and per_dialog_scores.csv to {out_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    runs = read_per_dialog_csv(args.per_dialog)
    if not runs:
        raise ParseError(None, "per-dialog dump is empty", args.per_dialog)
    table = table_from_per_dialog(runs)
    Path(args.output).write_text(emit_report(table, args.format), encoding="utf-8")
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_rate_curve(args) -> int:
    if args.predictions and (args.corpus or args.method):
        problem = "--predictions is not allowed with --corpus or --method"
    elif not (args.predictions or (args.corpus and args.method)):
        problem = "give either --predictions or --corpus with --method"
    else:
        problem = None
    if problem:
        print(f"persum rate-curve: error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    perspective = Perspective(args.perspective)
    prefixes = _prefixes_from_args(args)
    per_size: dict[int, list] = {}
    if args.predictions:
        sets = index_prediction_sets(load_predictions(p) for p in args.predictions).values()
        methods = {s.method for s in sets}
        if len(methods) != 1:
            raise ExperimentError(f"prediction files mix methods: {', '.join(sorted(methods))}")
        for pred in sets:
            bucket = per_size.setdefault(pred.training_size, [])
            for entry in pred.entries.values():
                cand = prediction_candidate(entry, pred.method, perspective, prefixes)
                if cand is not None:
                    bucket.append(cand)
    else:
        spec = parse_builtin_method(args.method)
        if spec is None:
            raise ExperimentError(f"{args.method!r} is not a built-in method")
        spec.require(perspective)
        corpus = read_corpus(args.corpus)
        candidates = []
        for dialog in _test_dialogs(corpus):
            cand = builtin_candidate(dialog, spec, perspective, prefixes)
            if cand is not None:
                candidates.append(cand)
        per_size = {size: candidates for size in args.sizes}
    rates = rate_curve(per_size)
    Path(args.output).write_text(rate_curve_csv(rates), encoding="utf-8")
    print(f"wrote {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
