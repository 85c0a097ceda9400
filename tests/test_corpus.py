from __future__ import annotations

import copy
import csv
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum import (
    Corpus,
    CorpusError,
    GoldSummary,
    ParseError,
    SpeakerRole,
    Split,
    make_dialog,
    parse_dialog_corpus,
    read_corpus,
    reconstruct_threads,
    split_corpus,
    write_corpus,
)
from persum.corpus import Tweet, Utterance, clean_tweet_text, load_split_csv, read_tweet_csv, with_split
from util import naive_clean_tweet_text, naive_read_tweet_csv, synthetic_corpus, tweet_table


def record_line(**kwargs) -> str:
    return json.dumps(kwargs)


def tweet(tweet_id, inbound, text, parent=None):
    return tweet_id, Tweet(SpeakerRole.CUSTOMER if inbound else SpeakerRole.AGENT, text, parent)


# --- types --------------------------------------------------------------------


def test_utterance_token_count_recomputed():
    utt = Utterance(SpeakerRole.CUSTOMER, "one two  three")
    assert utt.token_count == 3


def test_utterance_rejects_blank_text():
    with pytest.raises(CorpusError):
        Utterance(SpeakerRole.AGENT, "   ")


@given(st.text(alphabet=st.sampled_from("ab \t\n\x1c\x85\xa0\u3000"), max_size=12))
def test_utterance_is_an_immutable_named_tuple(text):
    if not text.strip():
        with pytest.raises(CorpusError, match="non-whitespace"):
            Utterance(SpeakerRole.AGENT, text)
        return
    utt = Utterance(SpeakerRole.AGENT, text)
    assert utt == (SpeakerRole.AGENT, text, len(text.split()))
    assert (utt.role, utt.text, utt.token_count) == tuple(utt)
    for name in ("role", "text", "token_count"):
        with pytest.raises(AttributeError):
            setattr(utt, name, 1)
    with pytest.raises(AttributeError):
        utt.extra = 1
    assert copy.deepcopy(utt) == pickle.loads(pickle.dumps(utt)) == utt
    assert utt._replace(text="x y") == (SpeakerRole.AGENT, "x y", 2)
    with pytest.raises(CorpusError):
        utt._replace(text=" ")
    with pytest.raises(TypeError):
        utt._replace(token_count=99)


def test_dialog_needs_an_utterance():
    with pytest.raises(CorpusError, match="^dialog 'd1' has no utterances$"):
        make_dialog("d1", [])


def test_corpus_is_immutable_and_changes_through_replace():
    corpus = synthetic_corpus(random.Random(4), 3)
    with pytest.raises(AttributeError):
        corpus.split = {}
    assigned = corpus._replace(split={d.id: Split.TEST for d in corpus.dialogs})
    assert corpus.split is None and assigned.dialogs is corpus.dialogs
    assert assigned.dialog_ids(Split.TEST) == corpus.dialog_ids()


def test_gold_summary_requires_both_parts():
    utterances = [{"role": "customer", "text": "hello there"}, {"role": "agent", "text": "hi"}]
    good = record_line(id="d0", utterances=utterances, gold={"customer": "need", "agent": "help"})
    blank = record_line(id="d1", utterances=utterances, gold={"customer": "need", "agent": "   "})
    assert parse_dialog_corpus([good]).gold == {"d0": GoldSummary("need", "help")}
    with pytest.raises(ParseError) as info:
        parse_dialog_corpus([good, blank])
    assert str(info.value) == "line 2: gold summary for 'd1' must have non-empty customer and agent parts"


# --- parsing ------------------------------------------------------------------


def test_parse_single_record():
    line = record_line(
        id="d1",
        utterances=[{"role": "customer", "text": "hello there"}, {"role": "agent", "text": "hi"}],
    )
    corpus = parse_dialog_corpus([line])
    assert len(corpus.dialogs) == 1
    dialog = corpus.dialogs[0]
    assert dialog.utterances == ((SpeakerRole.CUSTOMER, "hello there", 2), (SpeakerRole.AGENT, "hi", 1))
    assert dialog.utterances[0].role is SpeakerRole.CUSTOMER


def test_parse_empty_utterance_text_names_dialog():
    line = record_line(id="d9", utterances=[{"role": "customer", "text": ""}])
    with pytest.raises(CorpusError, match="d9"):
        parse_dialog_corpus([line])


def test_parse_duplicate_id_rejected():
    line = record_line(id="d1", utterances=[{"role": "customer", "text": "hello"}])
    with pytest.raises(CorpusError, match="duplicate"):
        parse_dialog_corpus([line, line])


def test_parse_malformed_line_carries_line_number():
    good = record_line(id="d1", utterances=[{"role": "customer", "text": "hello"}])
    with pytest.raises(ParseError) as exc_info:
        parse_dialog_corpus([good, "{not json"])
    assert exc_info.value.line == 2


@pytest.mark.parametrize(
    "escaped, lone",
    [
        ("\\ud83d\\ude00", None),  # a pair is one character
        ("\\ud800", "\\ud800"),
        ("x\\uDFFFy", "\\udfff"),
        ("\\ude00\\ud83d", "\\ude00"),  # the halves in the wrong order
        ("\\\\ud800", None),  # an escaped backslash, then the text "ud800"
        ("\\\\\\ud800", "\\ud800"),
    ],
)
def test_parse_rejects_only_lone_surrogate_escapes(escaped, lone):
    line = '{"id": "d1", "utterances": [{"role": "customer", "text": "' + escaped + '"}]}'
    if lone is None:
        assert parse_dialog_corpus([line]).dialogs[0].utterances[0].text == json.loads(line)["utterances"][0]["text"]
        return
    with pytest.raises(ParseError) as info:
        parse_dialog_corpus(["", line])
    assert str(info.value) == f"line 2: JSON string escapes a lone surrogate ({lone})"


def test_parse_unknown_split_value():
    line = record_line(
        id="d1", utterances=[{"role": "customer", "text": "hello"}], split="dev"
    )
    with pytest.raises(ParseError):
        parse_dialog_corpus([line])


def test_parse_reads_gold_and_split():
    line = record_line(
        id="d1",
        utterances=[{"role": "customer", "text": "hello"}],
        gold={"customer": "the need", "agent": "the answer"},
        split="test",
    )
    corpus = parse_dialog_corpus([line])
    assert corpus.gold["d1"].agent_part == "the answer"
    assert corpus.split["d1"] is Split.TEST


@pytest.mark.parametrize("gold", [{"customer": 5, "agent": "the answer"}, {"customer": "the need", "agent": None}])
def test_parse_non_string_gold_part_names_line(gold):
    good = record_line(id="d1", utterances=[{"role": "customer", "text": "hello"}])
    bad = record_line(id="d2", utterances=[{"role": "customer", "text": "hello"}], gold=gold)
    with pytest.raises(ParseError, match="gold summary parts must be strings") as exc_info:
        parse_dialog_corpus([good, bad])
    assert exc_info.value.line == 2


def test_round_trip_preserves_corpus(tmp_path):
    rand = random.Random(11)
    corpus = synthetic_corpus(rand, 20, with_gold=True, with_split=True)
    path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, path)
    again = read_corpus(path)
    assert again == corpus
    write_corpus(again, tmp_path / "corpus2.jsonl")
    assert (tmp_path / "corpus2.jsonl").read_bytes() == path.read_bytes()


# --- thread reconstruction ------------------------------------------------------


def test_reconstruct_alternating_chain():
    rows = [
        tweet("1", True, "my phone is broken"),
        tweet("2", False, "sorry to hear, try rebooting", parent="1"),
        tweet("3", True, "that worked, thanks", parent="2"),
    ]
    dialogs, report = reconstruct_threads(rows)
    assert len(dialogs) == 1
    assert dialogs[0].id == "1"
    assert [u.role for u in dialogs[0].utterances] == [
        SpeakerRole.CUSTOMER,
        SpeakerRole.AGENT,
        SpeakerRole.CUSTOMER,
    ]


def test_reconstruct_merges_consecutive_same_role():
    rows = [
        tweet("1", True, "part one"),
        tweet("2", True, "part two", parent="1"),
        tweet("3", False, "the answer", parent="2"),
    ]
    dialogs, _ = reconstruct_threads(rows)
    assert len(dialogs) == 1
    assert len(dialogs[0].utterances) == 2
    assert dialogs[0].utterances[0].text == "part one part two"


def test_reconstruct_drops_single_tweet_and_single_role():
    rows = [
        tweet("1", True, "shouting into the void"),
        tweet("2", False, "agent monologue"),
        tweet("3", False, "still the agent", parent="2"),
    ]
    dialogs, report = reconstruct_threads(rows)
    assert dialogs == []
    assert report.dropped_chains == 2


def test_reconstruct_skips_cycles_with_warning():
    rows = [
        tweet("a", True, "loop start", parent="b"),
        tweet("b", False, "loop end", parent="a"),
        tweet("1", True, "real question"),
        tweet("2", False, "real answer", parent="1"),
    ]
    dialogs, report = reconstruct_threads(rows)
    assert [d.id for d in dialogs] == ["1"]
    assert report.cyclic_chains_skipped == 1


def test_reconstruct_truncates_at_missing_parent():
    rows = [
        tweet("2", True, "replying to a deleted tweet", parent="404"),
        tweet("3", False, "agent takes over", parent="2"),
    ]
    dialogs, report = reconstruct_threads(rows)
    assert len(dialogs) == 1
    assert dialogs[0].id == "2"
    assert report.gap_truncations == 1


def test_reconstruct_branching_root_keeps_longest_chain():
    rows = [
        tweet("1", True, "root question"),
        tweet("2", False, "short branch", parent="1"),
        tweet("3", False, "long branch begins", parent="1"),
        tweet("4", True, "long branch continues", parent="3"),
    ]
    dialogs, _ = reconstruct_threads(rows)
    assert len(dialogs) == 1
    assert len(dialogs[0].utterances) == 3
    assert dialogs[0].utterances[1].text == "long branch begins"


def test_reconstruct_role_alternation_property():
    rand = random.Random(5)
    rows = []
    for root in range(40):
        parent = None
        for depth in range(rand.randint(1, 6)):
            tid = f"{root}-{depth}"
            rows.append(tweet(tid, rand.random() < 0.5, f"text {root} {depth} {'x ' * rand.randint(0, 8)}".strip(), parent))
            parent = tid
    dialogs, _ = reconstruct_threads(rows)
    assert dialogs
    for dialog in dialogs:
        roles = [u.role for u in dialog.utterances]
        assert all(a != b for a, b in zip(roles, roles[1:]))
        assert len(set(roles)) == 2


def test_clean_tweet_text():
    assert clean_tweet_text("@Delta my   flight to https://t.co/xyz is late") == (
        "@user my flight to http://url is late"
    )


TWEET_PIECES = st.sampled_from(
    ["\x1c", "\x1f", "\x85", "\xa0", "\u2009", "\u3000", "\u2028", "\u200b", "\u180e", " ", "\t", "\n", "\r\n",
     "http", "https://", "http://x.y/z", "www.", "www", "ww.", "@", "@a_1", "@é", "a", "é", "/", ".", ":"]
)


@settings(max_examples=300)
@given(st.lists(st.one_of(TWEET_PIECES, st.text(max_size=3)), max_size=25).map("".join))
def test_clean_tweet_text_equals_regex_oracle(text):
    assert clean_tweet_text(text) == naive_clean_tweet_text(text)


def test_clean_tweet_text_equals_regex_oracle_on_every_code_point():
    text = "x".join(map(chr, range(0x110000)))
    assert clean_tweet_text(text) == naive_clean_tweet_text(text)


def test_reconstruct_counts_many_cycles():
    rows = []
    for i in range(5000):
        rows += [tweet(f"a{i}", True, "loop start", parent=f"b{i}"), tweet(f"b{i}", False, "loop end", parent=f"a{i}")]
    rows += [tweet("1", True, "real question"), tweet("2", False, "real answer", parent="1")]
    dialogs, report = reconstruct_threads(rows)
    assert [d.id for d in dialogs] == ["1"]
    assert report.cyclic_chains_skipped == 5000


@pytest.mark.parametrize("seed", range(6))
def test_read_tweet_csv_equals_naive_decoder(tmp_path, seed):
    rand = random.Random(seed)
    header, *rows = tweet_table(rand, 150)

    def pad(value):  # an id with whitespace around it, which is stripped, or a blank one
        if rand.random() < 0.03:
            return " "
        return rand.choice(("", "", " ", "\t")) + value + rand.choice(("", "", " "))

    path = tmp_path / "tweets.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *((pad(row[0]), *row[1:-1], pad(row[-1])) for row in rows)])
    assert list(read_tweet_csv(path)) == naive_read_tweet_csv(path)
    assert reconstruct_threads(read_tweet_csv(path)) == reconstruct_threads(naive_read_tweet_csv(path))


def _all_chains(children, tid):
    if not children[tid]:
        return [[tid]]
    return [[tid, *chain] for kid in children[tid] for chain in _all_chains(children, kid)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reconstruct_keeps_first_longest_chain(data):
    # tweet i replies to an earlier tweet or to nothing; roles alternate with depth,
    # so every chain of two or more tweets is a dialog of one utterance per tweet
    n = data.draw(st.integers(1, 40))
    parents = [data.draw(st.integers(-1, i - 1)) for i in range(n)]
    depth = []
    for parent in parents:
        depth.append(0 if parent < 0 else depth[parent] + 1)
    order = data.draw(st.permutations(range(n)))
    rows = [tweet(f"t{i}", depth[i] % 2 == 0, f"t{i}", f"t{parents[i]}" if parents[i] >= 0 else None) for i in order]
    children = {f"t{i}": [f"t{j}" for j in order if parents[j] == i] for i in range(n)}
    expected = {}
    for i in order:
        if parents[i] < 0:
            chain = max(_all_chains(children, f"t{i}"), key=len)  # max keeps the first longest
            if len(chain) > 1:
                expected[f"t{i}"] = chain
    dialogs, report = reconstruct_threads(rows)
    assert {d.id: [u.text for u in d.utterances] for d in dialogs} == expected
    assert [d.id for d in dialogs] == list(expected)
    assert report.dropped_chains + len(dialogs) == sum(parent < 0 for parent in parents)


# --- splitting --------------------------------------------------------------------


def tiny_corpus(n):
    dialogs = [
        make_dialog(f"d{i}", [(SpeakerRole.CUSTOMER, "hello there"), (SpeakerRole.AGENT, "hi")])
        for i in range(n)
    ]
    return Corpus(dialogs)


def split_sizes(corpus):
    counts = {Split.TRAIN: 0, Split.VALIDATION: 0, Split.TEST: 0}
    for value in corpus.split.values():
        counts[value] += 1
    return counts[Split.TRAIN], counts[Split.VALIDATION], counts[Split.TEST]


def test_split_corpus_1100_dialogs():
    out = split_corpus(tiny_corpus(1100), seed=3)
    assert split_sizes(out) == (880, 110, 110)


def test_split_corpus_floor_arithmetic_small():
    out = split_corpus(tiny_corpus(10), seed=3)
    assert split_sizes(out) == (8, 1, 1)


def test_split_corpus_deterministic_per_seed():
    corpus = tiny_corpus(50)
    first = split_corpus(corpus, seed=12).split
    second = split_corpus(corpus, seed=12).split
    assert first == second
    assert split_corpus(corpus, seed=13).split != first


def test_split_corpus_bad_ratios():
    with pytest.raises(CorpusError):
        split_corpus(tiny_corpus(10), ratios=(0.7, 0.1, 0.1))


@pytest.mark.parametrize("ratios", [(0.5, 0.5), (0.5, 0.3, 0.1, 0.1)], ids=["two", "four"])
def test_split_corpus_needs_three_ratios(ratios):
    with pytest.raises(CorpusError, match="three values"):
        split_corpus(tiny_corpus(10), ratios=ratios)


@pytest.mark.parametrize("ratios", [(1.5, -0.5, 0.0), (0.5, 0.5, float("nan")), (1.2, -0.1, -0.1)])
def test_split_corpus_ratio_outside_unit_interval(ratios):
    with pytest.raises(CorpusError, match=r"must each lie in \[0, 1\]"):
        split_corpus(tiny_corpus(10), ratios=ratios)


def test_split_corpus_too_small():
    with pytest.raises(CorpusError):
        split_corpus(tiny_corpus(2))


def test_split_partition_property_random_sizes():
    rand = random.Random(99)
    for _ in range(25):
        n = rand.randint(3, 1500)
        out = split_corpus(tiny_corpus(n), seed=rand.randint(0, 10_000))
        n_train, n_val, n_test = split_sizes(out)
        assert n_train == math.floor(0.8 * n)
        assert n_val == math.floor(0.1 * n)
        assert n_train + n_val + n_test == n
        assert len(out.split) == n


def test_with_split_file_round_trip(tmp_path):
    corpus = tiny_corpus(5)
    path = tmp_path / "split.csv"
    path.write_text(
        "dialog_id,split\nd0,train\nd1,train\nd2,val\nd3,test\nd4,test\n", encoding="utf-8"
    )
    out = with_split(corpus, load_split_csv(path))
    assert out.split["d2"] is Split.VALIDATION
    assert split_sizes(out) == (2, 1, 2)


def test_with_split_requires_full_coverage(tmp_path):
    corpus = tiny_corpus(3)
    path = tmp_path / "split.csv"
    path.write_text("dialog_id,split\nd0,train\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="missing"):
        with_split(corpus, load_split_csv(path))


def test_split_file_unknown_value(tmp_path):
    path = tmp_path / "split.csv"
    path.write_text("dialog_id,split\nd0,dev\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_split_csv(path)


@pytest.mark.parametrize(
    "text, line",
    [("dialog_id,split\nd0\n", 2), ("dialog_id,split\nd0,test\n\nd1,train\nd2\n", 5), ("split,dialog_id\ntest\n", 2)],
)
def test_split_file_row_without_value_names_line(tmp_path, text, line):
    path = tmp_path / "split.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=r"split file row has 1 field\(s\), the header has 2") as exc_info:
        load_split_csv(path)
    assert exc_info.value.line == line


def test_pipeline_determinism_end_to_end(tmp_path):
    rand = random.Random(4)
    corpus = synthetic_corpus(rand, 30, with_gold=True)
    path = tmp_path / "c.jsonl"
    write_corpus(corpus, path)

    def run():
        parsed = read_corpus(path)
        return split_corpus(parsed, seed=21).split

    assert run() == run()
