from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persum.corpus
from persum import (
    Corpus,
    CorpusError,
    Dialog,
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
from persum.corpus import (
    TWEET_CSV_COLUMNS,
    LineSource,
    ThreadReport,
    Tweet,
    Utterance,
    clean_tweet_text,
    csv_body,
    csv_header,
    csv_rows,
    json_objects,
    load_split_csv,
    read_lines,
    read_tweet_csv,
    with_split,
)
from util import (
    CSV_PIECES,
    JSON_TEXT_PIECES,
    UTF8_PIECES,
    VALID_UTF8_PIECES,
    naive_clean_tweet_text,
    naive_csv_rows,
    naive_json_objects,
    naive_jsonl_line,
    naive_read_tweet_csv,
    naive_reconstruct_threads,
    naive_undecodable_byte,
    piped,
    synthetic_corpus,
    tweet_table,
)


def record_line(**kwargs) -> str:
    return json.dumps(kwargs)


def tweet(tweet_id, inbound, text, parent=None):
    return tweet_id, Tweet(SpeakerRole.CUSTOMER if inbound else SpeakerRole.AGENT, text, parent)


# --- types --------------------------------------------------------------------


_WHITESPACE_TEXT = st.text(alphabet=st.sampled_from("ab \t\n\x1c\x85\xa0\u3000"), max_size=12)


@given(_WHITESPACE_TEXT.filter(lambda text: not text.split()))
def test_utterance_rejects_blank_text(text):
    """Only make_dialog and the corpus reader check an utterance's text."""
    line = record_line(id="d1", utterances=[{"role": "agent", "text": text}])
    with pytest.raises(CorpusError, match="^utterance text must contain a non-whitespace character$"):
        make_dialog("d1", [(SpeakerRole.AGENT, text)])
    with pytest.raises(CorpusError, match="^line 1: dialog 'd1': empty utterance text at position 0$"):
        parse_dialog_corpus([line])


@given(_WHITESPACE_TEXT.filter(lambda text: text.split()))
def test_utterance_is_an_immutable_named_tuple(text):
    """An Utterance is the plain pair (role, text), as both builders make it."""
    line = record_line(id="d1", utterances=[{"role": "agent", "text": text}])
    utt = Utterance(SpeakerRole.AGENT, text)
    assert make_dialog("d1", [(SpeakerRole.AGENT, text)]).utterances == (utt,)
    assert parse_dialog_corpus([line]).dialogs[0].utterances == (utt,)
    assert utt == (SpeakerRole.AGENT, text) and Utterance._fields == ("role", "text")
    with pytest.raises(AttributeError):
        utt.text = "b"
    assert copy.deepcopy(utt) == pickle.loads(pickle.dumps(utt)) == utt


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
    assert dialog.utterances == ((SpeakerRole.CUSTOMER, "hello there"), (SpeakerRole.AGENT, "hi"))
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


def _read_outcome(read, lines):
    """The (line, object) pairs `read` yields for `lines`, or the text of its ParseError."""
    try:
        return list(read(lines))
    except ParseError as exc:
        return str(exc)


_OBJECT = '{"id": "d1", "n": [1, 2.5, null], "t": "caf\u00e9"}'


@pytest.mark.parametrize(
    "line",
    [
        "", "\n", "   \n", "\t\r\n", "\x0b\n", "\xa0\n",
        *(pad + _OBJECT + "\n" for pad in (" ", "\t", "\r", "\x0b", "\xa0")),
        *(_OBJECT + pad + end for pad in (" ", "\t", "\r", "\x0b", "\xa0") for end in ("\n", "")),
        _OBJECT, _OBJECT + "\r\n", "\ufeff" + _OBJECT + "\n",
        "[1, 2]\n", "1\n", '"text"\n', "null\n", "true\n",
        _OBJECT + _OBJECT + "\n", _OBJECT + " " + _OBJECT + "\n", _OBJECT + "\n" + _OBJECT, _OBJECT + " 1\n",
        '{"a": ' * 100_000 + "1" + "}" * 100_000 + "\n",
        '{"a": ' * 50 + "1" + "}" * 50 + "\n",
        '{"n": 1' + "0" * 4999 + "}\n", '{"n": -1' + "0" * 4299 + "}\n", '{"n": 1' + "0" * 4999 + ".5}\n",
        '{"t": "\\ud800"}\n', '{"t": "\\ud83d\\ude00"}\n', '{"t": "\\\\ud800"}\n', '{"t": "x"}\n',
        "{not json\n", '{"a": 1,}\n', "{}\n",
    ],
)
def test_json_objects_equals_per_line_decoder(line):
    lines = [_OBJECT + "\n", line, "\n", _OBJECT + "\n"]
    assert _read_outcome(json_objects, lines) == _read_outcome(naive_json_objects, lines)


_JSON_PIECES = st.sampled_from(
    ["", " ", "\t", "\r", "\x0b", "\xa0", "\ufeff", "{", "}", "[", "]", ",", ":", '"a"', '"\\ud800"', '"\\u00e9"',
     "1", "1e400", "-0", "null", "true", _OBJECT, '{"a": ' * 3000]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_JSON_PIECES, max_size=6).map("".join).flatmap(
    lambda text: st.sampled_from([text, text + "\n", text + "\r\n"])), max_size=5))
def test_json_objects_equals_per_line_decoder_on_pieced_lines(lines):
    assert _read_outcome(json_objects, lines) == _read_outcome(naive_json_objects, lines)


# lines with no quote, CR or NUL and no longer than csv's field limit (131 072) with their
# newline; csv_rows splits those of the header's width itself
_PLAIN_CSV_LINES = ["a,b\n", "b,a\n", "1,2\n", "1,2,3\n", "x\n", ",\n", " , \n", "\n", "\ufeff,b\n", "1," + "x" * 131_069 + "\n"]
# what csv.reader must read: the bytes of CSV syntax, CR, NUL (an error to csv.reader before
# Python 3.11), and fields at and over the limit
_LONG_CSV_FIELDS = ["x" * 131_072, "x" * 131_073, "1," + "x" * 131_072, "," + "x" * 131_073]
_SPECIAL_CSV_PIECES = [*CSV_PIECES, "\r", "\r\n", "1,2\r\n", "1,\r2\n", "\0", "1,\0\n", '"a\nb",c\n', '"q""q",d\n', "\ufeff",
                       *(field + "\n" for field in _LONG_CSV_FIELDS)]


def _csv_outcome(read, path):
    """The (line, values) rows `read` gives for the CSV at `path`, or the text of its ParseError."""
    try:
        return list(read(path, "test CSV", ("a", "b")))
    except ParseError as exc:
        return str(exc)


# a header, plain lines before and after pieces that csv.reader must read, and a last line
# that may not end
_CSV_FILE = (
    st.sampled_from(["", "\ufeff"]),
    st.one_of(st.just("a,b\n"), st.sampled_from(["", "\n", "a\n", "b,c,a\n", "a,b,a\n", '"a",b\n', "a,b\r\n", 'a,b,"c\nd"\n'])),
    *[st.lists(st.sampled_from(_PLAIN_CSV_LINES), max_size=4)] * 2,
    st.lists(st.sampled_from(_SPECIAL_CSV_PIECES + _PLAIN_CSV_LINES), max_size=4),
    st.sampled_from(["", "1,2", *_LONG_CSV_FIELDS]),
)


@settings(max_examples=300, deadline=None)
@given(*_CSV_FILE)
def test_csv_rows_equals_csv_reader(tmp_path_factory, bom, header, before, after, special, last):
    """The same rows, or the same error and line, as csv.reader over the whole file, with
    plain lines before and after the first line that csv.reader must read."""
    path = tmp_path_factory.mktemp("csv") / "input.csv"
    path.write_text(bom + header + "".join(before + special + after) + last, encoding="utf-8", newline="")
    assert _csv_outcome(csv_rows, path) == _csv_outcome(naive_csv_rows, path)


def _rows_then_error(rows) -> tuple[list, tuple[int | None, str] | None]:
    """The rows before the first ParseError of `rows`, and its line and message without the
    file (None when there is none)."""
    read = []
    try:
        for row in rows:
            read.append(row)
    except ParseError as exc:
        return read, (exc.line, exc.detail)
    return read, None


def _assert_restarts_at_row(path, boundary):
    """csv_header, then csv_body over the lines after row `boundary` (clipped to the rows) of
    csv_rows, from that row's line on: the rows after it, and the same error at the same line."""
    rows, error = _rows_then_error(csv_rows(path, "test CSV", ("a", "b")))
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            names, pick, lineno = csv_header(fh, "test CSV", ("a", "b"))
        except ParseError as exc:
            assert (rows, error) == ([], (exc.line, exc.detail))
            return
        lines = list(fh)
    boundary = min(boundary, len(rows))
    start = rows[boundary - 1][0] if boundary else lineno
    rest = _rows_then_error(csv_body(lines[start - lineno :], "test CSV", len(names), pick, start))
    assert (rows[:boundary] + rest[0], rest[1]) == (rows, error)


@settings(max_examples=300, deadline=None)
@given(*_CSV_FILE, st.integers(0, 12))
def test_csv_body_restarted_at_any_row_boundary_reads_what_csv_rows_reads(
    tmp_path_factory, bom, header, before, after, special, last, boundary
):
    """With plain lines before and after the first line that csv.reader must read."""
    path = tmp_path_factory.mktemp("csv") / "input.csv"
    path.write_text(bom + header + "".join(before + special + after) + last, encoding="utf-8", newline="")
    _assert_restarts_at_row(path, boundary)


# rows under the header "a,b" that csv.reader must read, each followed by plain lines that
# csv_body splits again (with LF, CR LF and lone CR ends): a quoted field over two and three
# lines, a quoted CR, a quoted comma, blank rows, a NUL, a field at the limit, and errors (a
# field over the limit, a row of the wrong width)
_SPECIAL_CSV_ROWS = ['"a\nb",c\n', '1,"x\n\ny"\r\n', '"1\r2",3\n', '"1,2",3\n', '"q""q",d\r\n', "\n", "\r\n", "\r",
                     "1,\0\n", "1," + "x" * 131_072 + "\n", "x" * 131_072 + ",1\n", "1," + "x" * 131_073 + "\n", '"1",2,3\n']
_PLAIN_CSV_LINES = ["a,b\n", "b,a\r\n", "1,2\r", ",\n"]
_INTERLEAVED_CSV_FILE = (
    st.sampled_from(["", "\ufeff"]),
    st.lists(st.tuples(st.sampled_from(_SPECIAL_CSV_ROWS), st.lists(st.sampled_from(_PLAIN_CSV_LINES), max_size=3)),
             min_size=1, max_size=6).map(lambda groups: "".join(row + "".join(plain) for row, plain in groups)),
    st.sampled_from(["", "1,2", '"1\n2",3', "1,2\r"]),
)


@settings(max_examples=300, deadline=None)
@given(*_INTERLEAVED_CSV_FILE, st.integers(0, 24))
def test_csv_body_splits_again_after_each_row_csv_reader_reads(tmp_path_factory, bom, body, last, boundary):
    """Rows that csv.reader must read, anywhere among plain lines and more than once: the
    same rows, or the same error and line, as csv.reader over the whole file, and the same
    again from any row boundary."""
    path = tmp_path_factory.mktemp("csv") / "input.csv"
    path.write_text(bom + "a,b\n" + body + last, encoding="utf-8", newline="")
    assert _csv_outcome(csv_rows, path) == _csv_outcome(naive_csv_rows, path)
    _assert_restarts_at_row(path, boundary)


_UTTERANCE_FAULTS = [
    ("not-a-dict", "a turn", "bad utterance"),
    ("none", None, "bad utterance"),
    ("list", ["customer", "hi"], "bad utterance"),
    ("missing-role", {"text": "hi"}, "bad utterance"),
    ("unknown-role", {"role": "bot", "text": "hi"}, "bad utterance"),
    ("unhashable-role", {"role": ["customer"], "text": "hi"}, "bad utterance"),
    ("missing-text", {"role": "agent"}, "bad utterance"),
    ("int-text", {"role": "agent", "text": 5}, "empty utterance text"),
    ("null-text", {"role": "agent", "text": None}, "empty utterance text"),
    ("list-text", {"role": "agent", "text": ["hi"]}, "empty utterance text"),
    ("blank-text", {"role": "agent", "text": " \t\u3000"}, "empty utterance text"),
    ("empty-text", {"role": "agent", "text": ""}, "empty utterance text"),
]


@pytest.mark.parametrize("position", [0, 1, 3])
@pytest.mark.parametrize("bad, complaint", [fault[1:] for fault in _UTTERANCE_FAULTS], ids=[f[0] for f in _UTTERANCE_FAULTS])
def test_parse_names_first_bad_utterance_after_valid_ones(position, bad, complaint):
    good = [{"role": "customer" if i % 2 else "agent", "text": f"turn {i}"} for i in range(position)]
    later = [{"role": "bot", "text": "x"}, {"role": "agent", "text": " "}]  # faults after it do not count
    lines = [record_line(id="d0", utterances=[{"role": "agent", "text": "ok"}]),
             record_line(id="d1", utterances=[*good, bad, *later])]
    with pytest.raises(ParseError) as info:
        parse_dialog_corpus(lines)
    assert str(info.value) == f"line 2: dialog 'd1': {complaint} at position {position}"


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


_JSON_TEXT = st.lists(st.sampled_from(JSON_TEXT_PIECES) | st.characters(codec="utf-8"), max_size=6).map("".join)
# (id, (role, text) turns, gold parts or None, split or None)
_WRITTEN_DIALOG = st.tuples(
    _JSON_TEXT,
    st.lists(st.tuples(st.sampled_from(SpeakerRole), _JSON_TEXT), min_size=1, max_size=4),
    st.none() | st.tuples(_JSON_TEXT, _JSON_TEXT),
    st.none() | st.sampled_from(Split),
)


def _naive_corpus_lines(drawn) -> str:
    lines = []
    for did, turns, parts, split in drawn:
        record = {"id": did, "utterances": [{"role": role.value, "text": text} for role, text in turns]}
        if parts is not None:
            record["gold"] = {"customer": parts[0], "agent": parts[1]}
        if split is not None:
            record["split"] = split.value
        lines.append(naive_jsonl_line(record) + "\n")
    return "".join(lines)


def _drawn_corpus(drawn) -> Corpus:
    gold = {did: GoldSummary(*parts) for did, _, parts, _ in drawn if parts is not None}
    split = {did: split for did, _, _, split in drawn if split is not None}
    dialogs = [Dialog(did, tuple(Utterance(role, text) for role, text in turns)) for did, turns, _, _ in drawn]
    return Corpus(dialogs, gold or None, split or None)


@settings(max_examples=300, deadline=None)
@given(st.lists(_WRITTEN_DIALOG, max_size=5, unique_by=lambda dialog: dialog[0]))
def test_write_corpus_equals_json_dumps_oracle(tmp_path_factory, drawn):
    """Every line is json.dumps of the record, compact and not ASCII-escaped, whatever the
    strings hold, with and without gold and split."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    write_corpus(_drawn_corpus(drawn), path)
    assert path.read_bytes() == _naive_corpus_lines(drawn).encode("utf-8")


@pytest.mark.parametrize("where", ["id", "text", "customer part", "agent part"])
def test_write_corpus_lone_surrogate_fails_like_oracle(tmp_path, where):
    lone = "a\ud800"
    drawn = [("d1", [(SpeakerRole.AGENT, "ok"), (SpeakerRole.CUSTOMER, lone if where == "text" else "b")],
              (lone if where == "customer part" else "c", lone if where == "agent part" else "d"), Split.TEST)]
    if where == "id":
        drawn[0] = (lone, *drawn[0][1:])
    with pytest.raises(UnicodeEncodeError):
        _naive_corpus_lines(drawn).encode("utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_corpus(_drawn_corpus(drawn), tmp_path / "corpus.jsonl")


# --- undecodable bytes -----------------------------------------------------------

# a filler that puts a character or a CR LF across the end of a 64 KiB read, then valid
# pieces, then any pieces (`UTF8_PIECES`)
_UTF8_FILLERS = [b"", b"x" * 65_534, b"x" * 65_535]


def _undecodable_outcome(path) -> tuple[int, str] | None:
    """(line, message) of the ParseError that reading every line of `path` with read_lines
    raises, or None when it raises none."""
    try:
        with read_lines(path, newline="") as lines:
            for _ in lines:
                pass
    except ParseError as error:
        assert str(error) == f"{path}, line {error.line}: {error.detail}"
        return error.line, error.detail
    return None


def _undecodable_outcomes(tmp_path, data: bytes) -> list[tuple[int, str] | None]:
    """`_undecodable_outcome` of `data` from a file and through a pipe."""
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    with piped(data) as pipe:
        return [_undecodable_outcome(path), _undecodable_outcome(pipe)]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(_UTF8_FILLERS),
    st.lists(st.sampled_from(VALID_UTF8_PIECES), max_size=4),
    st.lists(st.sampled_from(UTF8_PIECES), max_size=6),
)
def test_undecodable_byte_equals_a_whole_file_decode(tmp_path_factory, filler, head, tail):
    """The same line, offset and message as one decode of the whole input, or None for both,
    from a file and from a pipe."""
    data = filler + b"".join(head + tail)
    assert _undecodable_outcomes(tmp_path_factory.mktemp("utf8"), data) == [naive_undecodable_byte(data)] * 2


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"x" * 65_535 + b"\xe2(", (1, "'utf-8' codec can't decode byte 0xe2 at offset 65535: invalid continuation byte")),
        (b"x" * 65_535 + b"\r\n\xff", (2, "'utf-8' codec can't decode byte 0xff at offset 65537: invalid start byte")),
        (b"x" * 65_535 + b"\r\xff", (2, "'utf-8' codec can't decode byte 0xff at offset 65536: invalid start byte")),
        (b"x" * 65_536 + b"\xe2\x82", (1, "'utf-8' codec can't decode byte 0xe2 at offset 65536: unexpected end of data")),
    ],
    ids=["character-cut-at-a-chunk-end", "cr-lf-across-a-chunk-end", "cr-at-a-chunk-end", "character-cut-at-the-file-end"],
)
def test_undecodable_byte_at_a_chunk_end(tmp_path, data, expected):
    assert naive_undecodable_byte(data) == expected
    assert _undecodable_outcomes(tmp_path, data) == [expected] * 2


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_UTF8_FILLERS),
    st.lists(st.sampled_from(VALID_UTF8_PIECES + [b"x\n", b"\r\r", b"\n\r"]), max_size=8),
    st.sampled_from(["", None]),
)
def test_line_source_reads_the_lines_that_text_mode_reads(tmp_path_factory, filler, pieces, newline):
    """The lines of UTF-8 bytes from a file and from a pipe, with every kind of line end and
    byte-order marks anywhere, as open(encoding="utf-8-sig", newline=newline) reads them."""
    data = filler + b"".join(pieces)
    path = tmp_path_factory.mktemp("lines") / "input.txt"
    path.write_bytes(data)
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        expected = list(fh)
    with piped(data) as pipe:
        for source in (path, pipe):
            with read_lines(source, newline) as lines:
                assert list(lines) == expected


def _mixed_lines(rand: random.Random, n: int) -> bytes:
    """`n` lines of 0 to 300 characters, some of them 2-4 UTF-8 bytes long, and a few of 70 000
    to 300 000, each ending in LF, CR LF or a lone CR, lone CRs most often."""
    lines = []
    for _ in range(n):
        length = rand.randint(70_000, 300_000) if rand.random() < 0.02 else rand.randint(0, 300)
        text = "".join(rand.choice("ab ,\xe9\u20ac\U0001f600") for _ in range(min(length, 300)))
        lines.append((text * (length // max(len(text), 1) + 1))[:length] + rand.choice(["\r", "\r", "\n", "\r\n"]))
    return "".join(lines).encode()


@pytest.mark.parametrize("seed", range(4))
def test_line_source_reads_many_pieces_as_text_mode_reads_them(tmp_path, seed):
    """Lines that end in lone CRs are read in 64 KiB pieces, and long lines in ever longer
    ones: the lines read from a file and from a pipe are still text mode's, and a bad byte
    near the end is still named by its line and offset."""
    rand = random.Random(seed)
    data = _mixed_lines(rand, 3_000)
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    for newline in ("", None):
        with open(path, encoding="utf-8", newline=newline) as fh:
            expected = list(fh)
        with piped(data) as pipe:
            for source in (path, pipe):
                with read_lines(source, newline) as lines:
                    assert list(lines) == expected
    bad = data[:-rand.randint(2, 5_000)] + b"\xff" + data[-1:]
    assert _undecodable_outcomes(tmp_path, bad) == [naive_undecodable_byte(bad)] * 2


@pytest.mark.parametrize("seed", range(6))
def test_line_source_takes_blocks_between_lines_as_text_mode_reads_them(seed):
    """Lines read, with `take` of the next one to three LF lines (some with a changed last
    byte) tried between them, give the text that text mode reads, and the line count: a
    taken block is read past, a refused one is read as lines, lone CRs and long lines too."""
    rand = random.Random(seed)
    data = _mixed_lines(rand, 300)
    expected = data.decode()
    source = LineSource(io.BufferedReader(io.BytesIO(data)), "")
    read, lines, taken = [], iter(source), 0
    while True:
        ahead = expected[sum(map(len, read)):].splitlines(True)[:rand.randint(1, 3)]
        if ahead and all(line.endswith("\n") and "\r" not in line for line in ahead):
            block = "".join(ahead).encode()
            if rand.random() < 0.3:
                block = block[:-1] + b"x"
            if source.take(block, len(ahead)):
                read.append(block.decode())
                taken += 1
                continue
        line = next(lines, None)
        if line is None:
            break
        read.append(line)
    assert "".join(read) == expected
    assert source._line == len(expected.splitlines())
    assert taken


_PEAK_OF_READ = """
import sys, tracemalloc
from persum.corpus import csv_rows
tracemalloc.start()
rows = sum(1 for _ in csv_rows(sys.argv[1], "split file", ("dialog_id", "split")))
print(rows, tracemalloc.get_traced_memory()[1])
"""


def test_a_split_csv_of_lone_cr_lines_is_read_in_bounded_memory(tmp_path):
    """A 2.9 MB split CSV of 200 000 lines read in a child process peaks at about 0.46 MB of
    Python allocations (tracemalloc) with lone-CR line ends, and 24 KB with LF ends. Held
    whole, the lone-CR file took 15.6 MB."""
    rows = "".join(f"d{i:07d},{('train', 'test')[i % 2]}{{end}}" for i in range(200_000))
    for end in ("\n", "\r"):
        path = tmp_path / "split.csv"
        path.write_bytes(("dialog_id,split{end}" + rows).replace("{end}", end).encode())
        done = subprocess.run([sys.executable, "-c", _PEAK_OF_READ, str(path)], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": str(Path(persum.corpus.__file__).resolve().parents[1])})
        count, peak = map(int, done.stdout.split())
        assert count == 200_000
        assert peak < 1_000_000, (repr(end), peak)


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


def test_whitespace_other_than_space_is_not_printable():
    """clean_tweet_text returns a printable text as it is when no space starts, ends or
    doubles in it; that is `" ".join(text.split())` only while U+0020 is the one character
    that is both whitespace and printable."""
    assert [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c.isprintable()] == [" "]


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


def _assert_is_built_as(value, cls):
    """`value` is the `cls` that `cls`'s constructor builds from its fields: the same type,
    fields, equality, hash, `_replace` and pickle round trip."""
    built = cls(*value)
    assert type(value) is cls and value == built and hash(value) == hash(built)
    assert tuple(getattr(value, name) for name in cls._fields) == built
    replaced = value._replace(**{cls._fields[-1]: "other"})
    assert type(replaced) is cls and replaced == cls(*built[:-1], "other")
    copied = pickle.loads(pickle.dumps(value))
    assert type(copied) is cls and copied == built


def test_readers_build_the_named_tuples_their_constructors_build(tmp_path):
    path = tmp_path / "tweets.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(tweet_table(random.Random(7), 60))
    pairs = list(read_tweet_csv(path))
    dialogs, _ = reconstruct_threads(pairs)
    write_corpus(Corpus(dialogs), tmp_path / "corpus.jsonl")
    read = read_corpus(tmp_path / "corpus.jsonl").dialogs
    assert dialogs and read == dialogs
    for _, value in pairs:
        _assert_is_built_as(value, Tweet)
    for dialog in dialogs + read:
        _assert_is_built_as(dialog, Dialog)
        assert type(dialog.utterances) is tuple
        for utterance in dialog.utterances:
            _assert_is_built_as(utterance, Utterance)


@pytest.mark.parametrize(
    "turns",
    [((True, " "), (True, "\t"), (False, "hi")), ((True, "hi"), (False, "\u3000"), (True, "ok"))],
    ids=["merged", "alone"],
)
def test_reconstruct_blank_text_raises_make_dialogs_error(turns):
    """reconstruct_threads takes any pairs; a chain with a blank utterance fails in make_dialog."""
    pairs = [tweet(str(i), inbound, text, parent=str(i - 1) if i else None) for i, (inbound, text) in enumerate(turns)]
    with pytest.raises(CorpusError, match="^utterance text must contain a non-whitespace character$"):
        reconstruct_threads(pairs)


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_reconstruct_threads_equals_depth_first_oracle(data):
    # each tweet replies to nothing, to a tweet missing from the input, or to any tweet,
    # itself and later ones included, which makes branches and reply cycles
    n = data.draw(st.integers(1, 30))
    targets = st.one_of(st.none(), st.sampled_from(["gone1", "gone2"]), st.integers(0, n - 1).map(lambda i: f"t{i}"))
    parents = data.draw(st.lists(targets, min_size=n, max_size=n))
    inbound = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(n)))
    rows = [tweet(f"t{i}", inbound[i], f"text {i}", parents[i]) for i in order]
    assert reconstruct_threads(rows) == naive_reconstruct_threads(rows)


def cyclic_reply_graph(rand: random.Random) -> tuple[list, int]:
    """Seeded (tweet_id, Tweet) pairs, in shuffled order, of rooted threads, self-replies,
    cycles of 2 to 300 tweets, tails that lead into a cycle and trees that hang off cycle
    members or tails; and the number of cycles among them."""
    parents: dict[str, str | None] = {}
    cycles = rand.randint(0, 6)
    for c in range(cycles):
        ids = [f"c{c}-{i}" for i in range(rand.choice([1, 1, 2, 3, rand.randint(4, 300)]))]
        parents.update(zip(ids, ids[1:] + ids[:1]))  # one tweet replying to itself is a cycle too
    for i in range(rand.randint(0, 5)):
        parents[f"r{i}"] = rand.choice([None, "gone"])
    for i in range(rand.randint(0, 200)):
        parents[f"t{i}"] = rand.choice(list(parents))  # a tail into, or a branch off, any tweet so far
    rows = [tweet(tid, rand.random() < 0.5, f"text {tid}", parent) for tid, parent in parents.items()]
    rand.shuffle(rows)
    return rows, cycles


@pytest.mark.parametrize("seed", range(40))
def test_reconstruct_threads_counts_cycles_of_every_shape(seed):
    rows, cycles = cyclic_reply_graph(random.Random(seed))
    dialogs, report = reconstruct_threads(rows)
    assert report.cyclic_chains_skipped == cycles
    assert (dialogs, report) == naive_reconstruct_threads(rows)


def test_reconstruct_threads_counts_a_long_cycle_with_a_long_tail_in_linear_time():
    """A cycle of 40 000 tweets and a tail of 40 000 that leads into it count in about
    0.2 s on a 2-vCPU host; the limit is ten times that."""
    n = 40_000
    rows = [tweet(f"c{i}", i % 2 == 0, "text", f"c{(i + 1) % n}") for i in range(n)]
    rows += [tweet(f"t{i}", i % 2 == 0, "text", f"t{i + 1}" if i + 1 < n else "c0") for i in range(n)]
    start = time.perf_counter()
    dialogs, report = reconstruct_threads(rows)
    elapsed = time.perf_counter() - start
    assert (dialogs, report.cyclic_chains_skipped) == ([], 1)
    assert elapsed < 2.0, f"{elapsed:.2f} s"


def test_reconstruct_threads_merges_a_long_same_role_chain_in_linear_time():
    """A same-role run is joined once, not re-copied at each tweet it takes in: one chain of
    40 000 customer tweets of 12 words and one agent reply merges in about 0.1 s, where
    repeated concatenation took 20-35 s on the same 2-vCPU host."""
    n = 40_000
    texts = [f"tweet {i} " + "word " * 10 + "end" for i in range(n)]
    rows = [tweet(f"t{i}", True, text, f"t{i - 1}" if i else None) for i, text in enumerate(texts)]
    rows.append(tweet("reply", False, "we are on it", f"t{n - 1}"))
    start = time.perf_counter()
    dialogs, _ = reconstruct_threads(rows)
    elapsed = time.perf_counter() - start
    assert [(u.role, u.text) for u in dialogs[0].utterances] == [
        (SpeakerRole.CUSTOMER, " ".join(texts)), (SpeakerRole.AGENT, "we are on it")
    ]
    assert elapsed < 2.0, f"{elapsed:.2f} s"

# --- linear time in every input ----------------------------------------------------


def _write_jsonl(path, records, end: str = "\n") -> None:
    path.write_bytes("".join(json.dumps(record) + end for record in records).encode())


def _utterance(i: int) -> dict:
    return {"role": ("customer", "agent")[i % 2], "text": f"turn {i} of the dialog"}


def _tweet_row(i: int, inbound: bool, parent: str = "") -> tuple[str, ...]:
    return (str(i), "cust" if inbound else "AcmeSupport", str(inbound), "Tue Oct 31 22:10:47 +0000 2017",
            f"tweet {i} asks about the order", "", parent)


def _write_tweet_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([TWEET_CSV_COLUMNS, *rows])


def _threads(path) -> tuple[int, ThreadReport]:
    dialogs, report = reconstruct_threads(read_tweet_csv(path))
    return len(dialogs), report


# name -> (write the input at a path, read it back, what the read gives, the limit in s)
INPUT_SHAPES = {
    "corpus-one-dialog-of-40000-utterances": (
        lambda path: _write_jsonl(path, [{"id": "d0", "utterances": [_utterance(i) for i in range(40_000)]}]),
        lambda path: len(read_corpus(path).dialogs[0].utterances), 40_000, 1.0),
    "corpus-one-dialog-of-40000-utterances-ending-in-a-lone-cr": (  # a 2.2 MB line read on in ever longer pieces
        lambda path: _write_jsonl(path, [{"id": "d0", "utterances": [_utterance(i) for i in range(40_000)]}], "\r"),
        lambda path: len(read_corpus(path).dialogs[0].utterances), 40_000, 1.0),
    "corpus-40000-dialogs": (
        lambda path: _write_jsonl(path, [
            {"id": f"d{i}", "utterances": [_utterance(0), _utterance(1)], "gold": {"customer": "c", "agent": "a"},
             "split": ("train", "val", "test")[i % 3]} for i in range(40_000)
        ]),
        lambda path: len(read_corpus(path).dialogs), 40_000, 6.0),
    "corpus-40000-dialogs-with-cr-lf-line-ends": (
        lambda path: _write_jsonl(path, [{"id": f"d{i}", "utterances": [_utterance(0), _utterance(1)]} for i in range(40_000)], "\r\n"),
        lambda path: len(read_corpus(path).dialogs), 40_000, 3.0),
    "tweet-csv-one-alternating-chain-of-40000-tweets": (
        lambda path: _write_tweet_csv(path, [_tweet_row(i, i % 2 == 0, str(i - 1) if i else "") for i in range(40_000)]),
        _threads, (1, ThreadReport()), 4.0),
    "tweet-csv-one-root-with-40000-replies": (
        lambda path: _write_tweet_csv(path, [_tweet_row(0, True), *(_tweet_row(i, False, "0") for i in range(1, 40_001))]),
        _threads, (1, ThreadReport()), 3.0),
    "tweet-csv-40000-roots-of-80000-tweets": (
        lambda path: _write_tweet_csv(path, [_tweet_row(i, i % 2 == 0, "" if i % 2 == 0 else str(i - 1)) for i in range(80_000)]),
        _threads, (40_000, ThreadReport()), 9.0),
    "split-csv-100000-rows": (
        lambda path: path.write_text("dialog_id,split\n" + "".join(f"d{i},test\n" for i in range(100_000)), encoding="utf-8"),
        lambda path: len(load_split_csv(path)), 100_000, 3.0),
    "split-csv-100000-rows-ending-in-a-lone-cr": (  # no LF, so every line is split out of a 64 KiB piece
        lambda path: path.write_bytes(b"dialog_id,split\r" + b"".join(b"d%d,test\r" % i for i in range(100_000))),
        lambda path: len(load_split_csv(path)), 100_000, 4.0),
}


@pytest.mark.parametrize("shape", INPUT_SHAPES)
def test_readers_read_in_linear_time(tmp_path, shape):
    """Each shape read in at most 0.09, 0.07, 0.51, 0.29, 0.37, 0.21, 0.83, 0.24 and 0.34 s
    (six reads each) on a 2-vCPU host; the limits are ten times that or more, so a cost per
    item that grows with the items read before it fails."""
    write, read, expected, limit = INPUT_SHAPES[shape]
    path = tmp_path / "input"
    write(path)
    start = time.perf_counter()
    got = read(path)
    elapsed = time.perf_counter() - start
    assert got == expected
    assert elapsed < limit, f"{elapsed:.2f} s"


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
