from __future__ import annotations

import itertools
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persum import rouge
from persum.rouge import (
    PairScores,
    TokenizerConfig,
    aggregate,
    prepare_reference,
    rouge_l,
    rouge_n,
    score_pair,
    tokenize,
)
from util import VOCAB, naive_lcs_prf, naive_ngram_prf, naive_tokenize, random_token_list

CAND = "the cat on mat".split()
REF = "the cat sat on the mat".split()


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("The Cat, sat!") == ["the", "cat", "sat"]


def test_tokenize_empty_string():
    assert tokenize("") == []


def test_tokenize_keeps_nonalnum_when_disabled():
    assert tokenize("A-B", TokenizerConfig(strip_non_alnum=False)) == ["a-b"]


def test_tokenize_case_preserved_when_disabled():
    assert tokenize("The Cat", TokenizerConfig(lowercase=False, strip_non_alnum=False)) == ["The", "Cat"]


def test_tokenize_stemming_collapses_inflections():
    config = TokenizerConfig(stemming=True)
    assert tokenize("connection connections connecting connected", config) == ["connect"] * 4
    assert tokenize("ponies caresses hopping", config) == ["poni", "caress", "hop"]


ALL_TOKENIZERS = [TokenizerConfig(*flags) for flags in itertools.product((True, False), repeat=3)]


@given(st.text())
def test_tokenize_equals_naive_oracle(text):
    for config in ALL_TOKENIZERS:
        assert tokenize(text, config) == naive_tokenize(text, config)


@pytest.mark.parametrize(
    "text",
    ["ΟΔΟΣ ΟΔΟΣ.", "İstanbul", "Straße", "e\u0301", "\u00a0\u2028\u3000", "x²①٣", "thumbs 👍🏽 up"],
    ids=["final-sigma", "dotted-capital-i", "sharp-s", "combining-accent", "unicode-spaces", "digits", "emoji"],
)
def test_tokenize_equals_naive_oracle_on_unicode_edge_cases(text):
    for config in ALL_TOKENIZERS:
        assert tokenize(text, config) == naive_tokenize(text, config)


def test_tokenize_equals_naive_oracle_on_every_bmp_code_point():
    text = "".join(map(chr, range(0x10000)))
    for config in ALL_TOKENIZERS:
        assert tokenize(text, config) == naive_tokenize(text, config)


# cased and case-ignorable characters around final and other sigmas, a combining dot, a soft
# hyphen, a capital that lowers to two code points, digits, and whitespace other than a space
JOIN_TEXT = st.text(alphabet="ΣσςAbΟ:'.\u0307\u00adİ19\t\n\u00a0\u3000", max_size=10)


@settings(max_examples=500)
@given(JOIN_TEXT, JOIN_TEXT)
def test_tokens_of_two_texts_joined_with_a_space_are_their_tokens_in_order(a, b):
    """Why the full perspective may score its sides' tokens: a space is neither cased nor
    case-ignorable, so lowering (final sigma included) and splitting never see across it."""
    for config in ALL_TOKENIZERS:
        assert tokenize(a + " " + b, config) == tokenize(a, config) + tokenize(b, config)


def test_tokenize_table_stops_growing_at_its_cap():
    text = "".join(map(chr, range(0x110000)))
    assert tokenize(text) == naive_tokenize(text, TokenizerConfig())
    assert len(rouge._ALNUM_OR_SPACE) <= 65_536


def test_rouge_n_identity():
    tokens = "a b c".split()
    for n in (1, 2):
        score = rouge_n(tokens, tokens, n)
        assert score.precision == score.recall == score.f_measure == 1.0


def test_rouge_n_worked_example_unigram():
    score = rouge_n(CAND, REF, 1)
    assert score.precision == 1.0
    assert score.recall == pytest.approx(4 / 6, abs=1e-15)
    assert score.f_measure == pytest.approx(0.8, abs=1e-12)


def test_rouge_n_worked_example_bigram():
    score = rouge_n(CAND, REF, 2)
    assert score.precision == pytest.approx(1 / 3, abs=1e-15)
    assert score.recall == pytest.approx(1 / 5, abs=1e-15)
    assert score.f_measure == pytest.approx(0.25, abs=1e-12)


def test_rouge_n_disjoint_vocabularies():
    score = rouge_n("a b".split(), "x y".split(), 1)
    assert score.precision == score.recall == score.f_measure == 0.0


def test_rouge_n_rejects_other_orders():
    with pytest.raises(ValueError):
        rouge_n(CAND, REF, 3)


def test_rouge_l_identity():
    score = rouge_l(["a"], ["a"])
    assert score.f_measure == 1.0


def test_rouge_l_worked_example():
    score = rouge_l(CAND, REF)
    assert score.precision == 1.0
    assert score.recall == pytest.approx(2 / 3, abs=1e-15)
    assert score.f_measure == pytest.approx(0.8, abs=1e-12)


def test_rouge_l_empty_side_is_zero():
    score = rouge_l([], ["a", "b"])
    assert score.precision == score.recall == score.f_measure == 0.0


def test_score_pair_worked_example():
    row = score_pair("the cat on mat", "the cat sat on the mat")
    assert row.r1_f == pytest.approx(0.8, abs=1e-12)
    assert row.r2_f == pytest.approx(0.25, abs=1e-12)
    assert row.rl_f == pytest.approx(0.8, abs=1e-12)


def test_score_pair_keeps_three_states_in_one_pass():
    """Candidate "a a b x a", reference "a b a". ROUGE-1 consumes all three reference
    positions before the last "a", which still extends the LCS to "a b a". ROUGE-2
    finds "a b" at position 0, which ROUGE-1 has consumed too. And "x" breaks the
    bigram "b a" although it is no reference token. The row leaves out ROUGE-2's and
    ROUGE-L's precision and recall, so rouge_n and rouge_l give them from the same
    prepared reference."""
    ref = prepare_reference("a b a")
    row = score_pair("a a b x a", ref)
    assert score_pair("a a b x a", "a b a") == row
    cand = tokenize("a a b x a")
    r2, rl = rouge_n(cand, ref, 2), rouge_l(cand, ref)
    assert (row.r1_p, row.r1_r) == (3 / 5, 3 / 3)
    assert (r2.precision, r2.recall) == (1 / 4, 1 / 2)
    assert (rl.precision, rl.recall) == (3 / 5, 3 / 3)
    assert row.r2_f == r2.f_measure == pytest.approx(1 / 3, abs=1e-12)
    assert row.rl_f == rl.f_measure


def test_score_pair_identical_and_empty():
    assert score_pair("a b", "a b").r1_f == 1.0
    row = score_pair("", "a b")
    assert row.r1_f == row.r2_f == row.rl_f == 0.0


def test_matches_naive_oracles_on_random_pairs():
    rand = random.Random(2024)
    for _ in range(300):
        cand = random_token_list(rand)
        ref = random_token_list(rand)
        for n in (1, 2):
            got = rouge_n(cand, ref, n)
            want = naive_ngram_prf(cand, ref, n)
            assert got.precision == pytest.approx(want[0], abs=1e-12)
            assert got.recall == pytest.approx(want[1], abs=1e-12)
            assert got.f_measure == pytest.approx(want[2], abs=1e-12)
        got = rouge_l(cand, ref)
        want = naive_lcs_prf(cand, ref)
        assert got.f_measure == pytest.approx(want[2], abs=1e-12)


def test_appending_reference_token_never_lowers_unigram_recall():
    rand = random.Random(7)
    for _ in range(200):
        cand = random_token_list(rand)
        ref = random_token_list(rand, max_len=12) or ["alpha"]
        before = rouge_n(cand, ref, 1).recall
        after = rouge_n(cand + [rand.choice(ref)], ref, 1).recall
        assert after >= before - 1e-15


def test_reversal_changes_rouge_l_but_not_rouge_1():
    cand = ["alpha", "bravo", "charlie"]
    ref = ["alpha", "bravo", "charlie"]
    reversed_cand = list(reversed(cand))
    assert rouge_n(cand, ref, 1).f_measure == rouge_n(reversed_cand, ref, 1).f_measure
    assert rouge_l(cand, ref).f_measure == 1.0
    assert rouge_l(reversed_cand, ref).f_measure != 1.0


@given(
    st.lists(st.sampled_from(VOCAB), max_size=15),
    st.lists(st.sampled_from(VOCAB), max_size=15),
)
def test_scores_stay_in_unit_interval(cand, ref):
    for score in (rouge_n(cand, ref, 1), rouge_n(cand, ref, 2), rouge_l(cand, ref)):
        assert 0.0 <= score.precision <= 1.0
        assert 0.0 <= score.recall <= 1.0
        assert 0.0 <= score.f_measure <= 1.0


@given(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=15))
def test_self_identity(tokens):
    assert rouge_n(tokens, tokens, 1).f_measure == 1.0
    assert rouge_l(tokens, tokens).f_measure == 1.0
    if len(tokens) >= 2:
        assert rouge_n(tokens, tokens, 2).f_measure == 1.0


# five words and up to 150 tokens: tokens repeat heavily and bitmasks span several 64-bit words
# (the length is drawn first: plain st.lists rarely grows past a dozen items)
LONG_TOKENS = st.integers(0, 150).flatmap(lambda n: st.lists(st.sampled_from(VOCAB), min_size=n, max_size=n))


def _prf(score):
    return score.precision, score.recall, score.f_measure


@given(LONG_TOKENS, LONG_TOKENS)
def test_kernel_equals_naive_oracles_exactly(cand, ref):
    want = (naive_ngram_prf(cand, ref, 1), naive_ngram_prf(cand, ref, 2), naive_lcs_prf(cand, ref))
    prepared = prepare_reference(" ".join(ref))
    for reference in (" ".join(ref), prepared):
        assert score_pair(" ".join(cand), reference) == (*want[0], want[1][2], want[2][2])
    for reference in (ref, prepared):
        got = rouge_n(cand, reference, 1), rouge_n(cand, reference, 2), rouge_l(cand, reference)
        assert tuple(map(_prf, got)) == want


@given(LONG_TOKENS, LONG_TOKENS)
@example([], [])
@example([], ["alpha", "bravo"])
@example(["alpha"], ["alpha"])
@example(["alpha"], ["alpha", "bravo"])
@example(["alpha", "bravo"], ["alpha", "bravo", "alpha"])
def test_score_pair_row_equals_naive_oracles_exactly(cand, ref):
    """The row is ROUGE-1's precision, recall and F, then ROUGE-2's and ROUGE-L's F, each
    the oracle's float to the sign of a zero. The examples cover an empty candidate and
    one-token sides, whose ROUGE-2 totals m - 1 and n - 1 are 0."""
    want = [*naive_ngram_prf(cand, ref, 1), naive_ngram_prf(cand, ref, 2)[2], naive_lcs_prf(cand, ref)[2]]
    want = list(map(repr, want))
    for reference in (" ".join(ref), prepare_reference(" ".join(ref))):
        for candidate in (" ".join(cand), cand):  # its text, or its tokens
            row = score_pair(candidate, reference)
            assert type(row) is PairScores
            assert list(map(repr, row)) == want


@given(LONG_TOKENS, st.lists(LONG_TOKENS, max_size=8))
def test_prepared_reference_is_reusable(ref, candidates):
    shared = prepare_reference(" ".join(ref))
    masks = dict(shared.masks)
    reused = [score_pair(" ".join(cand), shared) for cand in candidates]
    assert reused == [score_pair(" ".join(cand), prepare_reference(" ".join(ref))) for cand in candidates]
    assert shared.tokens == tuple(ref) and shared.masks == masks


def test_aggregate_single_run():
    cell = aggregate([0.4])
    assert cell.mean == 0.4
    assert cell.deviation == 0.0
    assert cell.n_runs == 1


def test_aggregate_two_runs_sample_deviation():
    cell = aggregate([0.2, 0.4])
    assert cell.mean == pytest.approx(0.3, abs=1e-15)
    assert cell.deviation == pytest.approx(math.sqrt(0.02), abs=1e-12)
    assert cell.deviation == statistics.stdev([0.2, 0.4])


def test_aggregate_constant_runs():
    cell = aggregate([0.3, 0.3, 0.3])
    assert cell.mean == pytest.approx(0.3)
    assert cell.deviation == 0.0


def test_aggregate_empty_errors():
    with pytest.raises(ValueError):
        aggregate([])


# 2-6 run means drawn from a pool of at most six, so values repeat (a pool of one gives an
# all-equal list); each may move one ulp toward 0 or 1, for near-ties; k/40 gives the
# ratios a 40-dialog run mean takes
RUN_MEANS = st.lists(st.floats(0.0, 1.0) | st.integers(0, 40).map(lambda k: k / 40), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.sampled_from([None, 0.0, 1.0])), min_size=2, max_size=6)
).map(lambda picks: [x if toward is None else math.nextafter(x, toward) for x, toward in picks])


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds its square root once from 3.11")
@settings(max_examples=500)
@given(RUN_MEANS)
@example([0.3, 0.3, 0.3])
@example([0.0, 5e-324])
@example([0.2, math.nextafter(0.2, 1.0)])
def test_aggregate_equals_statistics_to_the_bit(means):
    cell = aggregate(means)
    assert cell.mean.hex() == statistics.fmean(means).hex()
    assert cell.deviation.hex() == statistics.stdev(means).hex()
    assert cell.n_runs == len(means)


def test_importing_cli_leaves_statistics_out():
    """aggregate needs no statistics module, whose import pulls in fractions, decimal and
    random on every persum start."""
    src = str(Path(rouge.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import persum.cli; print('statistics' in sys.modules)"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_importing_cli_leaves_the_stemmer_out():
    """The Porter stemmer is imported by the first tokenize call that stems."""
    src = str(Path(rouge.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import persum.cli; print('persum._porter' in sys.modules); "
            "persum.rouge.tokenize('running', persum.rouge.TokenizerConfig(stemming=True)); print('persum._porter' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "False\nTrue\n"
