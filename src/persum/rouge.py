"""ROUGE-1/2/L precision, recall, and F-measure plus run aggregation.

ROUGE-L uses the longest common subsequence over the full token sequences
(summary level, no sentence splitting), computed bit-parallel. F-measure is the
plain harmonic mean. A reference is tokenized once into a PreparedReference
and any number of candidate token lists are scored against it, each in one
pass that counts all three overlaps, which score_pair turns into a PairScores.
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


class PairScores(NamedTuple):
    """A candidate's scores against one reference, named after the dump's score columns."""

    r1_p: float
    r1_r: float
    r1_f: float
    r2_f: float
    rl_f: float


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
    masks[a] & masks[b] >> 1. One pass over a candidate's masks feeds all three
    scores: ROUGE-1 and ROUGE-2 clip by consuming these positions, each in its own
    set, and ROUGE-L runs its LCS row over them. Scoring only reads these fields,
    so one instance serves any number of candidates. It stands in for
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


def _rouge_counts(candidate: Sequence[str], ref: PreparedReference) -> tuple[int, int, int]:
    """ROUGE-1, ROUGE-2 and ROUGE-L overlaps in one pass over the candidate's masks, each with
    its own state. A token absent from the reference (mask 0) changes none of them but prev.

    ROUGE-1 and ROUGE-2 clip: each candidate unigram, or bigram, consumes the lowest
    reference position of it not yet consumed, in left1 or left2. Bit i of
    prev & mask >> 1 is set when the reference has the candidate's last two tokens at
    positions i and i + 1. Distinct n-grams have disjoint position masks, so each counts
    min(candidate count, reference count) times: the clipped overlap.

    ROUGE-L is the bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004). v holds one
    row of the LCS table: bit j is clear when the LCS of the candidate so far with
    reference[:j + 1] is one longer than with reference[:j], so the LCS length is the
    number of clear bits among the low n. u has no bit at or above n and carries only
    move upward, so bits above n never change the low n and v is masked once, at the end.
    """
    n = len(ref.tokens)
    left1 = left2 = v = full = (1 << n) - 1
    overlap1 = overlap2 = prev = 0
    for mask in map(ref.masks.get, candidate, repeat(0)):
        if mask:
            free = mask & left1
            if free:
                left1 ^= free & -free
                overlap1 += 1
            free = prev & (mask >> 1) & left2
            if free:
                left2 ^= free & -free
                overlap2 += 1
            u = v & mask
            v = (v + u) | (v - u)
        prev = mask
    return overlap1, overlap2, n - (v & full).bit_count()


def _prepared(reference: Sequence[str] | PreparedReference) -> PreparedReference:
    return reference if isinstance(reference, PreparedReference) else _prepare_tokens(reference)


def rouge_n(candidate: Sequence[str], reference: Sequence[str] | PreparedReference, n: int) -> RougeScore:
    """Clipped n-gram overlap score for n in {1, 2}."""
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    ref = _prepared(reference)
    m = len(candidate)
    return _make_score(_rouge_counts(candidate, ref)[n - 1], max(m - n + 1, 0), max(len(ref) - n + 1, 0))


def rouge_l(candidate: Sequence[str], reference: Sequence[str] | PreparedReference) -> RougeScore:
    """Longest-common-subsequence score over the full token sequences."""
    ref = _prepared(reference)
    return _make_score(_rouge_counts(candidate, ref)[2], len(candidate), len(ref))


def score_pair(
    candidate: str | list[str], reference: str | PreparedReference, config: TokenizerConfig = DEFAULT_TOKENIZER
) -> PairScores:
    """Score a candidate, given as text or as its tokens, with ROUGE-1, ROUGE-2, and ROUGE-L,
    as _make_score would. Text is tokenized here, a reference given as text too; a
    PreparedReference, made with the same config, is used as it is."""
    if not isinstance(reference, PreparedReference):
        reference = prepare_reference(reference, config)
    tokens = tokenize(candidate, config) if isinstance(candidate, str) else candidate
    overlap1, overlap2, lcs = _rouge_counts(tokens, reference)
    if not overlap1:  # no shared token, so no shared bigram and an empty LCS
        return PairScores(0.0, 0.0, 0.0, 0.0, 0.0)
    m, n = len(tokens), len(reference.tokens)
    p1, r1, pl, rl = overlap1 / m, overlap1 / n, lcs / m, lcs / n
    f2 = _f_measure(overlap2 / (m - 1), overlap2 / (n - 1)) if overlap2 else 0.0
    return PairScores(p1, r1, _f_measure(p1, r1), f2, _f_measure(pl, rl))


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
