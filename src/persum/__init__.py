"""Perspective-aware customer-support dialog summarization pipeline.

Ingests dialog corpora, generates weak (source, target) training pairs with
the lead/long heuristics, runs heuristic baseline summarizers with
indirect-speech post-processing, samples nested few-shot training subsets,
and evaluates any summarizer's output with ROUGE-1/2/L F-measure.
"""

from .corpus import (
    Corpus,
    CorpusError,
    Dialog,
    GoldSummary,
    ParseError,
    SpeakerRole,
    Split,
    Utterance,
    make_dialog,
    parse_dialog_corpus,
    read_corpus,
    reconstruct_threads,
    split_corpus,
    write_corpus,
)
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    MissingCellsError,
    ResultTable,
    RunResult,
    SubsetFamily,
    emit_report,
    rate_curve,
    run_experiment,
    sample_nested_subsets,
)
from .rng import make_rng
from .rouge import (
    AggregateCell,
    PairScores,
    RougeScore,
    TokenizerConfig,
    aggregate,
    rouge_l,
    rouge_n,
    score_pair,
    tokenize,
)
from .summarize import (
    CandidateSummary,
    Perspective,
    PredictionSet,
    PrefixConfig,
    load_predictions,
    post_process,
)
from .weaklabel import (
    HeuristicKind,
    WeakPair,
    lead_utterance,
    long_utterance,
    make_weak_pair,
    weaklabel_corpus,
)

__version__ = "0.1.0"
