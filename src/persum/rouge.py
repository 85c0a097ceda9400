"""ROUGE-1/2/L precision, recall, and F-measure plus run aggregation.

ROUGE-L uses the longest common subsequence over the full token sequences
(summary level, no sentence splitting), computed bit-parallel. F-measure is the
plain harmonic mean. A reference is tokenized once into a PreparedReference
and any number of candidate token lists are scored against it.
Aggregation renders the mean of per-run scores with the sample standard
deviation (n-1 denominator) as the +/- column.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Sequence


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
        from . import _porter  # only stemming needs it, so a start without stemming skips compiling it

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
    tokens[i] is that token), and the positions of a bigram (a, b) are
    masks[a] & masks[b] >> 1. ROUGE-1 and ROUGE-2 clip by consuming these
    positions and ROUGE-L runs its LCS row over them. Scoring only reads these
    fields, so one instance serves any number of candidates. It stands in for
    the reference token list in rouge_n, rouge_l and score_pair, and its length
    is the number of tokens.
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
    """Each candidate token consumes the lowest reference position of that token not yet
    consumed. Distinct tokens have disjoint masks, so a token counts min(candidate count,
    reference count) times: the clipped overlap."""
    overlap = 0
    left = (1 << len(ref.tokens)) - 1  # reference positions not yet consumed
    for mask in map(ref.masks.get, candidate, repeat(0)):
        free = mask & left
        if free:
            left ^= free & -free
            overlap += 1
    return _make_score(overlap, len(candidate), len(ref.tokens))


def _rouge_2(candidate: Sequence[str], ref: PreparedReference) -> RougeScore:
    """As _rouge_1 over bigrams: bit i of prev & mask >> 1 is set when the reference has
    the candidate's last two tokens at positions i and i + 1. A position fixes its bigram,
    so distinct bigrams have disjoint position masks."""
    overlap = prev = 0
    left = (1 << len(ref.tokens)) - 1
    for mask in map(ref.masks.get, candidate, repeat(0)):
        free = prev & (mask >> 1) & left
        if free:
            left ^= free & -free
            overlap += 1
        prev = mask
    return _make_score(overlap, max(len(candidate) - 1, 0), max(len(ref.tokens) - 1, 0))


def _rouge_l(candidate: Sequence[str], ref: PreparedReference) -> RougeScore:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004).

    v holds one row of the LCS table: bit j is clear when the LCS of the
    candidate so far with reference[:j + 1] is one longer than with
    reference[:j]. The LCS length is the number of clear bits among the low n,
    and each candidate token updates the whole row with a few integer
    operations. u has no bit at or above n and carries only move upward, so
    bits above n never change the low n and the row is masked once, at the end.
    """
    n = len(ref.tokens)
    full = (1 << n) - 1
    v = full
    for token in candidate:
        mask = ref.masks.get(token)
        if mask:
            u = v & mask
            v = (v + u) | (v - u)
    return _make_score(n - (v & full).bit_count(), len(candidate), n)


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


def score_pair(
    candidate: str, reference: str | PreparedReference, config: TokenizerConfig = DEFAULT_TOKENIZER
) -> ScoreTriple:
    """Tokenize the candidate and compute ROUGE-1, ROUGE-2, and ROUGE-L. A reference
    given as text is tokenized here; a PreparedReference, made with the same config,
    is used as it is."""
    if not isinstance(reference, PreparedReference):
        reference = prepare_reference(reference, config)
    tokens = tokenize(candidate, config)
    return ScoreTriple(rouge_n(tokens, reference, 1), rouge_n(tokens, reference, 2), rouge_l(tokens, reference))


class AggregateCell(NamedTuple):
    mean: float
    deviation: float
    n_runs: int


def _sqrt_of_ratio(num: int, den: int) -> float:
    """sqrt(num / den), correctly rounded, by the method of Python 3.11's
    statistics._float_sqrt_of_frac: the integer square root of the ratio scaled to
    109 (2 * 53 + 3) or more bits, rounded to odd, then rounded once to a float."""
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


def aggregate(per_run_means: Sequence[float]) -> AggregateCell:
    """Mean and sample standard deviation over per-run means: the same floats as
    statistics.fmean and statistics.stdev.

    Every mean is an integer over a common power-of-two denominator, so the sum of
    squared deviations is an exact integer ratio and the deviation is rounded once.
    """
    n = len(per_run_means)
    if not n:
        raise ValueError("cannot aggregate an empty list of run means")
    mean = math.fsum(per_run_means) / n
    if n < 2:
        return AggregateCell(mean, 0.0, n)
    ratios = [x.as_integer_ratio() for x in per_run_means]
    exp = max(den for _, den in ratios).bit_length() - 1  # each mean is an integer over 2 ** exp
    scaled = [num * (1 << exp) // den for num, den in ratios]
    total = sum(scaled)
    # variance = (n * sum(x * x) - sum(x) ** 2) / (n * (n - 1)), here with every x scaled by 2 ** exp
    squares = n * sum(x * x for x in scaled) - total * total
    return AggregateCell(mean, _sqrt_of_ratio(squares, n * (n - 1) << 2 * exp), n)
