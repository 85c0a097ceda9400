"""ROUGE-1/2/L precision, recall, and F-measure plus run aggregation.

ROUGE-L uses the longest common subsequence over the full token sequences
(summary level, no sentence splitting), computed bit-parallel. F-measure is the
plain harmonic mean. A reference is tokenized once into a PreparedReference
and any number of candidate token lists are scored against it.
Aggregation renders the mean of per-run scores with the sample standard
deviation (n-1 denominator) as the +/- column.
"""

from __future__ import annotations

import statistics
from collections import Counter
from typing import NamedTuple, Sequence

from . import _porter


class TokenizerConfig(NamedTuple):
    lowercase: bool = True
    strip_non_alnum: bool = True
    stemming: bool = False


DEFAULT_TOKENIZER = TokenizerConfig()


_TABLE_CAP = 65_536


class _AlnumOrSpace(dict):
    """A str.translate table that keeps an alphanumeric code point and maps any other to
    a space. It learns each code point on first sight and stops learning at _TABLE_CAP
    entries, so text spanning many scripts cannot grow it without bound (every code
    point would take 1.1 M entries and 74 MB)."""

    def __missing__(self, cp: int) -> int:
        kept = cp if chr(cp).isalnum() else 32
        if len(self) < _TABLE_CAP:
            self[cp] = kept
        return kept


_ALNUM_OR_SPACE = _AlnumOrSpace()


def tokenize(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> list[str]:
    """Lowercase, replace non-alphanumeric characters by spaces, split, stem."""
    if config.lowercase:
        text = text.lower()
    if config.strip_non_alnum:
        text = text.translate(_ALNUM_OR_SPACE)
    tokens = text.split()
    if config.stemming:
        tokens = [_porter.stem(t) for t in tokens]
    return tokens


class RougeScore(NamedTuple):
    precision: float
    recall: float
    f_measure: float


class ScoreTriple(NamedTuple):
    r1: RougeScore
    r2: RougeScore
    rl: RougeScore


def _f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _make_score(overlap: float, candidate_total: int, reference_total: int) -> RougeScore:
    precision = overlap / candidate_total if candidate_total > 0 else 0.0
    recall = overlap / reference_total if reference_total > 0 else 0.0
    return RougeScore(precision, recall, _f_measure(precision, recall))


class PreparedReference:
    """A tokenized reference with what every candidate is scored against.

    `masks` maps each token to the bitmask of its positions (bit i set when
    tokens[i] is that token). A token's count is the popcount of its mask, and
    the count of a bigram (a, b) is the popcount of masks[a] & masks[b] >> 1.
    Scoring only reads these fields, so one instance serves any number of
    candidates. It stands in for the reference token list in rouge_n, rouge_l
    and score_pair, and its length is the number of tokens.
    """

    __slots__ = ("tokens", "masks")

    def __init__(self, tokens: tuple[str, ...], masks: dict[str, int]):
        self.tokens = tokens
        self.masks = masks

    def __len__(self) -> int:
        return len(self.tokens)


def _prepare_tokens(tokens: Sequence[str]) -> PreparedReference:
    masks: dict[str, int] = {}
    for i, token in enumerate(tokens):
        masks[token] = masks.get(token, 0) | (1 << i)
    return PreparedReference(tuple(tokens), masks)


def prepare_reference(text: str, config: TokenizerConfig = DEFAULT_TOKENIZER) -> PreparedReference:
    """Tokenize a reference once so that many candidates can be scored against it."""
    return _prepare_tokens(tokenize(text, config))


def _rouge_1(candidate: Sequence[str], ref: PreparedReference) -> RougeScore:
    overlap = 0
    for token, count in Counter(candidate).items():
        mask = ref.masks.get(token)
        if mask:
            ref_count = mask.bit_count()
            overlap += count if count < ref_count else ref_count
    return _make_score(overlap, len(candidate), len(ref.tokens))


def _rouge_2(candidate: Sequence[str], ref: PreparedReference) -> RougeScore:
    overlap = 0
    for (first, second), count in Counter(zip(candidate, candidate[1:])).items():
        first_mask = ref.masks.get(first)
        second_mask = ref.masks.get(second)
        if first_mask and second_mask:
            ref_count = (first_mask & second_mask >> 1).bit_count()
            overlap += count if count < ref_count else ref_count
    return _make_score(overlap, max(len(candidate) - 1, 0), max(len(ref.tokens) - 1, 0))


def _rouge_l(candidate: Sequence[str], ref: PreparedReference) -> RougeScore:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004).

    v holds one row of the LCS table: bit j is clear when the LCS of the
    candidate so far with reference[:j + 1] is one longer than with
    reference[:j]. The LCS length is the number of clear bits, and each
    candidate token updates the whole row with a few integer operations.
    """
    n = len(ref.tokens)
    full = (1 << n) - 1
    v = full
    for token in candidate:
        mask = ref.masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return _make_score(n - v.bit_count(), len(candidate), n)


def _prepared(reference: Sequence[str] | PreparedReference) -> PreparedReference:
    return reference if isinstance(reference, PreparedReference) else _prepare_tokens(reference)


def rouge_n(candidate: Sequence[str], reference: Sequence[str] | PreparedReference, n: int) -> RougeScore:
    """Clipped n-gram overlap score for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    return (_rouge_1 if n == 1 else _rouge_2)(candidate, _prepared(reference))


def rouge_l(candidate: Sequence[str], reference: Sequence[str] | PreparedReference) -> RougeScore:
    """Longest-common-subsequence score over the full token sequences."""
    return _rouge_l(candidate, _prepared(reference))


def score_tokens(candidate: Sequence[str], reference: PreparedReference) -> ScoreTriple:
    """ROUGE-1, ROUGE-2, and ROUGE-L of candidate tokens against a prepared reference."""
    return ScoreTriple(
        rouge_n(candidate, reference, 1), rouge_n(candidate, reference, 2), rouge_l(candidate, reference)
    )


def score_pair(
    candidate: str, reference: str | PreparedReference, config: TokenizerConfig = DEFAULT_TOKENIZER
) -> ScoreTriple:
    """Tokenize the candidate and compute ROUGE-1, ROUGE-2, and ROUGE-L. A reference
    given as text is tokenized here; a PreparedReference, made with the same config,
    is used as it is."""
    if not isinstance(reference, PreparedReference):
        reference = prepare_reference(reference, config)
    return score_tokens(tokenize(candidate, config), reference)


class AggregateCell(NamedTuple):
    mean: float
    deviation: float
    n_runs: int


def aggregate(per_run_means: Sequence[float]) -> AggregateCell:
    """Mean and sample standard deviation over per-run means."""
    if not per_run_means:
        raise ValueError("cannot aggregate an empty list of run means")
    mean = statistics.fmean(per_run_means)
    deviation = statistics.stdev(per_run_means) if len(per_run_means) >= 2 else 0.0
    return AggregateCell(mean, deviation, len(per_run_means))
