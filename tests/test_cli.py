from __future__ import annotations

import contextlib
import csv
import errno
import gc
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum import cli, rouge
from persum.cli import main
from persum.corpus import SpeakerRole, Split, make_dialog, read_corpus, write_corpus
from persum.experiment import PER_DIALOG_COLUMNS, emit_report, load_config_file, table_from_per_dialog
from persum.summarize import load_predictions
from util import (
    CSV_PIECES,
    UTF8_PIECES,
    naive_jsonl_line,
    naive_read_dump,
    naive_read_tweet_csv,
    naive_reconstruct_threads,
    naive_run_experiment,
    naive_undecodable_byte,
    piped,
    random_text,
    synthetic_corpus,
    tweet_table,
)

KAGGLE_HEADER = "tweet_id,author_id,inbound,created_at,text,response_tweet_id,in_response_to_tweet_id\n"


def kaggle_row(tid, inbound, text, parent=""):
    author = "115712" if inbound else "AcmeSupport"
    return f'{tid},{author},{inbound},Tue Oct 31 22:10:47 +0000 2017,"{text}",,{parent}\n'


@pytest.fixture
def kaggle_csv(tmp_path):
    # five threads: three survive, one single-tweet root and one
    # agent-only chain are dropped
    rows = [
        kaggle_row("1", True, "my order 123 never arrived"),
        kaggle_row("2", False, "so sorry! checking the tracking now", "1"),
        kaggle_row("3", True, "thanks let me know what you find", "2"),
        kaggle_row("10", True, "the app logs me out"),
        kaggle_row("11", True, "every single day", "10"),
        kaggle_row("12", False, "please try reinstalling it", "11"),
        kaggle_row("20", False, "we are aware of the outage"),
        kaggle_row("21", True, "any update on this?", "20"),
        kaggle_row("30", True, "hello? is this thing on"),
        kaggle_row("40", False, "scheduled maintenance tonight"),
        kaggle_row("41", False, "expect ten minutes of downtime", "40"),
    ]
    path = tmp_path / "tweets.csv"
    path.write_text(KAGGLE_HEADER + "".join(rows), encoding="utf-8")
    return path


def test_ingest_kaggle_csv(kaggle_csv, tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    code = main(["ingest", "--format", "kaggle-csv", "--input", str(kaggle_csv), "--output", str(out)])
    assert code == 0
    assert "dialogs: 3" in capsys.readouterr().out
    corpus = read_corpus(out)
    assert sorted(d.id for d in corpus.dialogs) == ["1", "10", "20"]
    merged = corpus.by_id()["10"]
    assert merged.utterances[0].text == "the app logs me out every single day"


# sha256 of each output of the pipeline below, as written before the corpus layer
# was rebuilt on NamedTuples, dict lookups and one JSON encoder
PIPELINE_SHA256 = {
    "corpus.jsonl": "6c188834b1b603a4f82f41641810fe4808568b5d250d094bc8e9ca728fcc1f81",
    "split.jsonl": "8d77633e17222e2cd8a5d6b28053f94e84cb4101740d6f5128abdba7d87e7942",
    "customer_lead.jsonl": "cdbbe077850b681f9d545cae3ad1db1be883c7bf6bdebdbde716f05e5ae175fa",
    "customer_lead.coverage.json": "ce31938ae176d84513315504b782a2d3c1402e4cdeb34637d2e7e42e40dc0e47",
    "agent_long.jsonl": "50df496c75aa3767576c73ff7f9d30b845b15ed25e14cc1f37c30f8002ebbb77",
    "agent_long.coverage.json": "8df6f19d747daacfe3378ba17433a93fc2099e3c36ecabcc140e4c7dc3d55bb2",
}


def test_ingest_split_weaklabel_bytes_pinned(tmp_path, capsys):
    tweets = tmp_path / "tweets.csv"
    with open(tweets, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(tweet_table(random.Random(2024), 400))
    corpus, split = tmp_path / "corpus.jsonl", tmp_path / "split.jsonl"
    commands = [
        ["ingest", "--format", "kaggle-csv", "--input", tweets, "--output", corpus],
        ["split", "--corpus", corpus, "--output", split, "--seed", "3"],
    ]
    for side, heuristic, extra in (("customer", "lead", []), ("agent", "long", ["--masked"])):
        stem = tmp_path / f"{side}_{heuristic}"
        commands.append(
            ["weaklabel", "--corpus", split, "--perspective", side, "--heuristic", heuristic, *extra,
             "--output", f"{stem}.jsonl", "--coverage", f"{stem}.coverage.json"]
        )
    for argv in commands:
        assert main([str(arg) for arg in argv]) == 0
    out = capsys.readouterr()
    assert out.out.startswith("dialogs: 302\ntrain=241 val=30 test=31\n")
    assert out.err == "warning: cyclic_chains_skipped: 19\nwarning: gap_truncations: 96\nwarning: dropped_chains: 101\n"
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PIPELINE_SHA256}
    assert digests == PIPELINE_SHA256


@pytest.mark.parametrize("row, fields", [("2,c,False\n", 3), ("2,c,False,now,hi,,1,extra\n", 8)], ids=["short", "long"])
def test_ingest_tweet_row_of_wrong_width_exits_2(kaggle_csv, tmp_path, capsys, row, fields):
    lines = kaggle_csv.read_text(encoding="utf-8").splitlines(keepends=True)
    lines.insert(2, row)  # between tweet 1 and its reply
    kaggle_csv.write_text("".join(lines), encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    code = main(["ingest", "--format", "kaggle-csv", "--input", str(kaggle_csv), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {kaggle_csv}, line 3: tweet CSV row has {fields} field(s), the header has 7\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("repeat", ["1", " 1 "], ids=["same", "padded"])
def test_ingest_repeated_tweet_row_names_csv_and_line(tmp_path, capsys, repeat):
    src = tmp_path / "tweets.csv"
    rows = [kaggle_row("1", True, "my order never arrived"), kaggle_row("2", False, "sorry about that", "1")]
    src.write_text(KAGGLE_HEADER + "".join(rows) + rows[0].replace("1", repeat, 1), encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    code = main(["ingest", "--format", "kaggle-csv", "--input", str(src), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {src}, line 4: duplicate tweet_id '1' (first on line 2)\n"
    assert not out.exists()


def test_ingest_skips_blank_tweet_rows(kaggle_csv, tmp_path, capsys):
    kaggle_csv.write_text(kaggle_csv.read_text(encoding="utf-8").replace("\n", "\n\n"), encoding="utf-8")
    code = main(["ingest", "--format", "kaggle-csv", "--input", str(kaggle_csv), "--output", str(tmp_path / "c.jsonl")])
    assert code == 0
    assert "dialogs: 3" in capsys.readouterr().out


def _utterance(text="hello there", role="customer"):
    return {"role": role, "text": text}


# an integer of more digits than int() converts (4 300 by default from Python 3.10.7), which
# json raises as a plain ValueError
LONG_INT = "9" * 5_000
try:
    int(LONG_INT)
except ValueError as exc:
    LONG_INT_ERROR = str(exc)
else:
    LONG_INT_ERROR = None
NEEDS_INT_LIMIT = pytest.mark.skipif(LONG_INT_ERROR is None, reason="int() converts any number of digits")


def _record(did, **extra):
    return json.dumps({"id": did, "utterances": [_utterance(), _utterance("hi", "agent")], **extra})


@pytest.mark.parametrize(
    "second, complaint",
    [
        (_record("d2", gold={"customer": " ", "agent": "x"}),
         "gold summary for 'd2' must have non-empty customer and agent parts"),
        (_record("d1"), "duplicate dialog id 'd1'"),
        (json.dumps({"id": "d2", "utterances": [_utterance(role="boss")]}), "dialog 'd2': bad utterance at position 0"),
        (json.dumps({"id": "d2", "utterances": [_utterance(" \t")]}), "dialog 'd2': empty utterance text at position 0"),
        (_record("d2", split="dev"), "dialog 'd2': unknown split 'dev'"),
        ("{not json", "invalid JSON (Expecting property name enclosed in double quotes)"),
        pytest.param(_record("d2")[:-1] + f', "n": {LONG_INT}}}', f"invalid JSON ({LONG_INT_ERROR})",
                     marks=NEEDS_INT_LIMIT),
        ("[" * 100_000, "invalid JSON (nested too deeply)"),
    ],
    ids=["blank-gold-part", "duplicate-id", "bad-role", "blank-text", "bad-split", "bad-json", "long-int",
         "deep-nesting"],
)
def test_corpus_error_names_file_and_line(tmp_path, capsys, second, complaint):
    src = tmp_path / "c.jsonl"
    src.write_text(_record("d1") + "\n\n" + second + "\n", encoding="utf-8")
    code = main(["ingest", "--format", "dialog-jsonl", "--input", str(src), "--output", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {src}, line 3: {complaint}\n"


def test_corpus_error_without_a_line_names_file(tmp_path, capsys):
    src = tmp_path / "c.jsonl"
    src.write_text(_record("d1", split="train") + "\n" + _record("d2") + "\n", encoding="utf-8")
    code = main(["weaklabel", "--corpus", str(src), "--perspective", "agent", "--heuristic", "long",
                 "--output", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {src}: split assignment missing for 1 dialog(s), first: 'd2'\n"


def _config_with(path, base, **settings):
    """Write to `path` the config at `base` with `settings` added, and return `path`."""
    path.write_text(json.dumps({**json.loads(base.read_text(encoding="utf-8")), **settings}), encoding="utf-8")
    return path


def _reading(reader, path, scored_setup, out):
    """The command line that reads `path` as the input `reader` names and writes `out`; the
    other inputs it needs are scored_setup's corpus and config (for a prediction file, a
    copy of that config that lists it, written beside `out`)."""
    corpus_path, config_path = scored_setup
    if reader == "predictions":
        config_path = _config_with(out.with_name("predictions.json"), config_path, predictions=[str(path)])
    return {
        "config": ["score", "--config", str(path), "--output-dir", str(out)],
        "split": ["split", "--corpus", str(corpus_path), "--split-file", str(path), "--output", str(out)],
        "tweet-csv": ["ingest", "--format", "kaggle-csv", "--input", str(path), "--output", str(out)],
        "corpus": ["ingest", "--format", "dialog-jsonl", "--input", str(path), "--output", str(out)],
        "predictions": ["score", "--config", str(config_path), "--output-dir", str(out)],
        "dump": ["report", "--per-dialog", str(path), "--output", str(out)],
        "exclude": ["weaklabel", "--corpus", str(corpus_path), "--perspective", "agent", "--heuristic", "long",
                    "--exclude", str(path), "--output", str(out)],
    }[reader]


@pytest.mark.parametrize("reader", ["config", "split", "tweet-csv", "corpus", "predictions", "dump", "exclude"])
def test_byte_that_is_not_utf8_names_file_and_no_line(scored_setup, tmp_path, capsys, reader):
    corpus_path, _ = scored_setup
    first_line = {
        "config": '{"methods": ["lead_base"],\n',
        "split": "dialog_id,split\n",
        "tweet-csv": KAGGLE_HEADER,
        "corpus": corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)[0],
        "predictions": '{"method": "pegasus", "training_size": 0, "seed": 0}\n',
        "dump": DUMP_HEADER,
        "exclude": "d00000\n",
    }[reader].encode()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(first_line + b"\xff\n")
    out = tmp_path / "out"
    assert main(_reading(reader, bad, scored_setup, out)) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}, line 2: 'utf-8' codec can't decode byte 0xff at offset {len(first_line)}: invalid start byte\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("reader", ["config", "split", "tweet-csv", "corpus", "predictions", "dump", "exclude"])
def test_byte_that_is_not_utf8_past_the_first_read_block_names_line_and_file_offset(
    scored_setup, tmp_path, capsys, reader, mark
):
    """A first line longer than the 8 KB a text reader decodes at a time puts the byte in a
    later block; the message still gives its line and its offset in the file, counting any
    byte-order mark and the bytes of multi-byte characters. The second line is one that the
    reader takes, since a faulty line before the bad byte is named first."""
    pad = "x" * 9000
    first_line = {
        "config": '{"methods": ["lead_base"],' + " " * 9000 + "\n",
        "split": f"dialog_id,split,{pad}\n",
        "tweet-csv": KAGGLE_HEADER.replace("\n", f",{pad}\n"),
        "corpus": _record("d1", note=pad) + "\n",
        "predictions": json.dumps({"method": "pegasus", "training_size": 0, "seed": 0, "note": pad}) + "\n",
        "dump": DUMP_HEADER.replace("\n", f",{pad}\n"),
        "exclude": pad + "\n",
    }[reader]
    second_line = {
        "split": '"café, naïve",train,x\r\n',
        "tweet-csv": '1,u,True,t,"café, naïve",,,x\r\n',
        "corpus": _record("d2", note="café, naïve") + "\r\n",
        "predictions": json.dumps({"dialog_id": "d00001", "customer": "café, naïve"}, ensure_ascii=False) + "\r\n",
        "dump": '"café, naïve",pegasus,customer,0,0,0.5,0.5,0.5,0.5,0.5,x\r\n',
    }.get(reader, "café, naïve\r\n")
    head = mark + (first_line + second_line).encode()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(head + b"\xff\n")
    out = tmp_path / "out"
    assert main(_reading(reader, bad, scored_setup, out)) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}, line 3: 'utf-8' codec can't decode byte 0xff at offset {len(head)}: invalid start byte\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "cr-lf", "cr"])
@pytest.mark.parametrize("reader", ["config", "split", "tweet-csv", "corpus", "predictions", "dump", "exclude"])
def test_a_pipe_names_an_undecodable_byte_as_the_file_does(scored_setup, tmp_path, capsys, reader, end, mark):
    """Lines that the reader takes, with any line end and behind any byte-order mark, then
    a bad byte: the same bytes read from a file and through a pipe are named at the line
    and offset that one decode of the whole input gives."""
    lines = {
        "config": ['{"methods": ["lead_base"],', '"perspectives": ["customer"],'],
        "split": ["dialog_id,split", "d00000,train"],
        "tweet-csv": [KAGGLE_HEADER.strip(), kaggle_row("1", True, "café, naïve").strip()],
        "corpus": [_record("d1"), _record("d2", note="naïve")],
        "predictions": ['{"method": "pegasus", "training_size": 0, "seed": 0}', '{"dialog_id": "d00001", "customer": "naïve"}'],
        "dump": [DUMP_HEADER.strip(), "d1,pegasus,customer,0,0,0.5,0.5,0.5,0.5,0.5"],
        "exclude": ["d00000", "café"],
    }[reader]
    data = mark + "".join(line + end for line in lines).encode() + b"x\xff" + end.encode()
    line, message = naive_undecodable_byte(data)
    assert line == 3
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    for name in ("file", "pipe"):
        with piped(data) as pipe:
            source = path if name == "file" else pipe
            out = tmp_path / f"out-{name}"
            assert main(_reading(reader, source, scored_setup, out)) == 2
        assert capsys.readouterr().err == f"error: {source}, line {line}: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("reader", ["corpus", "predictions", "config"])
def test_lone_surrogate_escape_names_file_and_line(scored_setup, tmp_path, capsys, reader):
    """json reads "\\ud800" as half a surrogate pair, which is no character and which no
    UTF-8 output can hold; each JSON input rejects it at its line, and nothing is written."""
    config = json.loads(scored_setup[1].read_text(encoding="utf-8"))
    text = {
        "corpus": _record("d1") + "\n" + _record("d2", gold={"customer": "a \ud800 b", "agent": "x"}) + "\n",
        "predictions": "".join(json.dumps(record) + "\n" for record in [
            {"method": "pegasus", "training_size": 0, "seed": 0},
            {"dialog_id": "d00001", "customer": "fine \U0001f600"},
            {"dialog_id": "d00002", "customer": "half a pair \udfff"},
        ]),
        "config": json.dumps({**config, "prefix_customer": "\ud800: "}, indent=1),
    }[reader]
    escape = "\\udfff" if reader == "predictions" else "\\ud800"  # json.dumps escapes the pair too
    line = text.count("\n", 0, text.index(escape)) + 1
    src = tmp_path / "input.json"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(_reading(reader, src, scored_setup, out)) == 2
    assert capsys.readouterr().err == f"error: {src}, line {line}: JSON string escapes a lone surrogate ({escape})\n"
    assert not out.exists()


def test_import_leaves_dataclasses_and_inspect_out():
    """Every persum process pays for `import persum.cli`; dataclasses and inspect (with ast,
    dis and tokenize) would add about 16 ms to it. -S keeps site's .pth files from
    importing them first."""
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys; sys.path.insert(0, sys.argv[1]); import persum.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code, str(src)], capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def _written(out):
    """The bytes under an output file or directory, by relative name."""
    if out.is_file():
        return {"": out.read_bytes()}
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("reader", ["config", "split", "tweet-csv", "corpus", "predictions", "dump", "exclude"])
def test_input_with_a_byte_order_mark_reads_as_without(scored_setup, kaggle_csv, tmp_path, capsys, reader):
    corpus_path, config_path = scored_setup
    corpus = read_corpus(corpus_path)
    pegasus = {"methods": ["pegasus"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1,
               "corpus": str(corpus_path)}
    predictions = _prediction_file(tmp_path / "p.jsonl", "pegasus", corpus.dialog_ids(Split.TEST))
    text = {
        "config": config_path.read_text(encoding="utf-8"),
        "split": "dialog_id,split\n" + "".join(f"{did},{split.value}\n" for did, split in corpus.split.items()),
        "tweet-csv": kaggle_csv.read_text(encoding="utf-8"),
        "corpus": corpus_path.read_text(encoding="utf-8"),
        "predictions": Path(predictions).read_text(encoding="utf-8"),
        "dump": DUMP_HEADER + "d1,pegasus,customer,0,0,0.5,0.5,0.5,0.25,0.5\n"
        + "d2,pegasus,customer,0,1,1.0,0.0,0.0,0.0,0.0\n",
        "exclude": "d00000\nd00003\n",
    }[reader]
    outputs = []
    for mark in ("", "\ufeff"):
        src, out = tmp_path / f"input{len(mark)}.txt", tmp_path / f"out{len(mark)}"
        src.write_text(mark + text, encoding="utf-8")
        pegasus_config = tmp_path / f"pegasus{len(mark)}.json"
        pegasus_config.write_text(json.dumps({**pegasus, "predictions": [str(src)]}), encoding="utf-8")
        argv = {
            "config": ["score", "--config", str(src), "--output-dir", str(out)],
            "split": ["split", "--corpus", str(corpus_path), "--split-file", str(src), "--output", str(out)],
            "tweet-csv": ["ingest", "--format", "kaggle-csv", "--input", str(src), "--output", str(out)],
            "corpus": ["ingest", "--format", "dialog-jsonl", "--input", str(src), "--output", str(out)],
            "predictions": ["score", "--config", str(pegasus_config), "--output-dir", str(out)],
            "dump": ["report", "--per-dialog", str(src), "--output", str(out)],
            "exclude": ["weaklabel", "--corpus", str(corpus_path), "--perspective", "agent", "--heuristic", "long",
                        "--exclude", str(src), "--output", str(out)],
        }[reader]
        assert main(argv) == 0
        outputs.append(_written(out))
    assert outputs[0] and outputs[1] == outputs[0]
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["tweet-csv", "split", "dump"])
def test_field_over_the_csv_field_limit_names_file_and_line(scored_setup, tmp_path, capsys, reader):
    corpus_path, _ = scored_setup
    long = "x" * 140_000
    text = {
        "tweet-csv": KAGGLE_HEADER + kaggle_row("1", True, "hi") + kaggle_row("2", False, long, "1"),
        "split": f"dialog_id,split\nd00000,train\n{long},test\n",
        "dump": DUMP_HEADER + "d1,pegasus,customer,0,0,0.5,0.5,0.5,0.5,0.5\n"
        + f"{long},pegasus,customer,0,1,0.5,0.5,0.5,0.5,0.5\n",
    }[reader]
    bad = tmp_path / "bad.csv"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "tweet-csv": ["ingest", "--format", "kaggle-csv", "--input", str(bad), "--output", str(out)],
        "split": ["split", "--corpus", str(corpus_path), "--split-file", str(bad), "--output", str(out)],
        "dump": ["report", "--per-dialog", str(bad), "--output", str(out)],
    }[reader]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}, line 3: field larger than field limit (131072)\n"
    assert not out.exists()


# the bytes that JSON syntax turns on, a null, a number that overflows a float, and NUL
JSON_PIECES = ['"', ",", ":", "{", "}", "[", "]", "\n", "null", "1e400", "\u0000", "\\ud800"]


def _edits(pieces):
    """Edits of a piece of the input (as UTF-8), and one time in four an insert of bytes that
    may not be UTF-8 (`UTF8_PIECES`: a lone CR, a BOM, a bad byte, ...)."""
    piece_edit = st.tuples(st.sampled_from(["insert", "delete", "duplicate"]), st.sampled_from([p.encode() for p in pieces]),
                           st.integers(0, 999))
    byte_insert = st.tuples(st.just("insert"), st.sampled_from(UTF8_PIECES), st.integers(0, 999))
    return st.lists(st.integers(0, 3).flatmap(lambda kind: piece_edit if kind else byte_insert), min_size=1, max_size=4)


def _mutated(data, edits):
    """Insert a piece at a position, or delete or duplicate one occurrence of it."""
    for edit, piece, at in edits:
        starts = [match.start() for match in re.finditer(re.escape(piece), data)]
        if edit == "insert":
            at %= len(data) + 1
            data = data[:at] + piece + data[at:]
        elif starts:
            at = starts[at % len(starts)]
            data = data[:at] + (piece * 2 if edit == "duplicate" else b"") + data[at + len(piece):]
    return data


def _quiet_main(argv):
    """main(argv) with stdout dropped; returns the exit code and stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


def _assert_names_the_undecodable_byte(error, path, data):
    """An error line that says a byte is not UTF-8 names the first such byte of `data`."""
    if "codec can't decode" in error:
        line, message = naive_undecodable_byte(data)
        assert error == f"error: {path}, line {line}: {message}"


def _plain_csv_rows(path):
    """The rows of the CSV at `path` as one csv.reader reads the whole file, blank rows left out."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return [row for row in csv.reader(fh) if row]


@pytest.mark.parametrize("reader", ["tweet-csv", "split", "dump"])
@settings(max_examples=40, deadline=None)
@given(edits=_edits(CSV_PIECES))
def test_mutated_csv_input_exits_0_or_2_naming_the_file(tmp_path_factory, reader, edits):
    """A small valid input, mutated, makes the command succeed or fail with a message
    naming that input, and a bad byte by its line and offset. A success writes what naive
    readers of the input give: the dialogs and warnings of naive_reconstruct_threads, the
    split of a plain csv.reader read, and for a dump whose header is still the columns as
    written, the report of the dump as naive_read_dump reads it."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(synthetic_corpus(random.Random(9), 3), corpus_path)
    text = {
        "tweet-csv": KAGGLE_HEADER + kaggle_row("1", True, "my order, it never came")
        + kaggle_row("2", False, "sorry!", "1"),
        "split": "dialog_id,split\nd00000,train\nd00001,val\nd00002,test\n",
        "dump": DUMP_HEADER + "d1,pegasus,customer,0,0,0.5,0.5,0.5,0.25,0.5\n"
        + '"d,2",pegasus,agent,0,1,1.0,0.0,0.0,0.0,0.0\n',
    }[reader]
    path = tmp_path / "input.csv"
    path.write_bytes(_mutated(text.encode(), edits))
    out = tmp_path / "out"
    argv = {
        "tweet-csv": ["ingest", "--format", "kaggle-csv", "--input", str(path), "--output", str(out)],
        "split": ["split", "--corpus", str(corpus_path), "--split-file", str(path), "--output", str(out)],
        "dump": ["report", "--per-dialog", str(path), "--output", str(out)],
    }[reader]
    code, stderr = _quiet_main(argv)
    assert code in (0, 2)
    if code == 2:
        assert stderr.startswith(f"error: {path}")
        _assert_names_the_undecodable_byte(stderr.splitlines()[-1], path, path.read_bytes())
    elif reader == "tweet-csv":
        dialogs, report = naive_reconstruct_threads(naive_read_tweet_csv(path))
        assert out.read_text(encoding="utf-8") == "".join(naive_jsonl_line(
            {"id": d.id, "utterances": [{"role": u.role.value, "text": u.text} for u in d.utterances]}) + "\n" for d in dialogs)
        assert stderr == "".join(f"warning: {key}: {value}\n" for key, value in report._asdict().items() if value)
    elif reader == "split":
        header, *rows = _plain_csv_rows(path)
        pick = [header.index("dialog_id"), header.index("split")]
        written = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert {r["id"]: r["split"] for r in written} == {row[pick[0]].strip(): row[pick[1]].strip() for row in rows}
    elif _plain_csv_rows(path)[0] == list(PER_DIALOG_COLUMNS):
        assert out.read_bytes() == emit_report(table_from_per_dialog(naive_read_dump(path))).encode()


@pytest.mark.parametrize("reader", ["corpus", "predictions", "config"])
@settings(max_examples=40, deadline=None)
@given(edits=_edits(JSON_PIECES))
def test_mutated_jsonl_input_exits_0_or_2_naming_the_file(tmp_path_factory, reader, edits):
    """A small valid corpus, prediction file or config, mutated, makes the command succeed
    or fail with a message; a corpus or prediction file is named in it, except that a
    mutated prediction header may leave the configured cell without predictions, and a bad
    byte is named by its line and offset. A `score` that succeeds writes the dump and the
    warnings of naive_run_experiment on the inputs its config names; the prediction file
    starts with an entry for a train dialog, which `score` warns of."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    # five test dialogs: four edits that keep the JSON valid cannot take every prediction away
    corpus = synthetic_corpus(random.Random(9), 12, with_gold=True, with_split=True, train_fraction=0.2)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    path = tmp_path / "input.jsonl"
    config = {"methods": ["pegasus"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1,
              "corpus": str(corpus_path)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**config, "predictions": [str(path)]}), encoding="utf-8")
    # words of the gold summaries, so that the scores are not all zero
    predictions = _prediction_file(tmp_path / "predictions.jsonl", "pegasus",
                                   corpus.dialog_ids(Split.TRAIN)[:1] + corpus.dialog_ids(Split.TEST),
                                   "alpha bravo charlie delta")
    text = {
        "corpus": _record("d1", gold={"customer": "hi", "agent": "x"}, split="test") + "\n"
        + _record("d2", split="train") + "\n",
        "predictions": Path(predictions).read_text(encoding="utf-8"),
        "config": json.dumps({**config, "predictions": [predictions]}),
    }[reader]
    path.write_bytes(_mutated(text.encode(), edits))
    out = tmp_path / "out"
    argv = {
        "corpus": ["ingest", "--format", "dialog-jsonl", "--input", str(path), "--output", str(out)],
        "predictions": ["score", "--config", str(config_path), "--output-dir", str(out)],
        "config": ["score", "--config", str(path), "--output-dir", str(out)],
    }[reader]
    code, stderr = _quiet_main(argv)
    assert code in (0, 2)
    if code == 0 and reader != "corpus":
        loaded, paths = load_config_file(argv[2])
        external = [load_predictions(p) for p in paths.predictions]
        _, dump, warnings = naive_run_experiment(read_corpus(paths.corpus), loaded, external)
        assert (out / "per_dialog_scores.csv").read_bytes() == dump.encode()
        assert stderr == "".join(f"warning: {warning}\n" for warning in warnings)
    if code == 2:
        error = stderr.splitlines()[-1]  # after any warnings
        _assert_names_the_undecodable_byte(error, path, path.read_bytes())
    if code == 2 and reader != "config" and not error.startswith(f"error: {path}"):
        assert reader == "predictions" and error.startswith("error: missing prediction cells: "), stderr
        assert path.read_bytes().split(b"\n")[0] != text.encode().split(b"\n")[0], "header unchanged"


@pytest.mark.parametrize(
    "text, complaint",
    [('{"method": "pegasus", "training_size": 0, "seed": 0}\n{"dialog_id": "d1", "customer": 5}\n',
      ", line 2: field 'customer' must be a string or null"),
     ("", ": prediction file has no header line")],
    ids=["bad-field", "empty"],
)
def test_prediction_file_error_names_file(scored_setup, tmp_path, capsys, text, complaint):
    pred = tmp_path / "pred.jsonl"
    pred.write_text(text, encoding="utf-8")
    config_path = _config_with(tmp_path / "pred.json", scored_setup[1], predictions=[str(pred)])
    out = tmp_path / "run"
    assert main(["score", "--config", str(config_path), "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {pred}{complaint}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, complaint",
    [
        ("dialog_id,split\nd0,train\nd1,test\n\nd0,val\n", "line 5: duplicate split assignment for dialog 'd0'"),
        ("dialog_id,split\nd0,dev\n", "line 2: unknown split value 'dev'"),
        ("id,split\nd0,dev\n", "line 1: split file missing column(s): dialog_id"),
        ("dialog_id,split,split\nd0,train,test\n", "line 1: split file header names column 'split' more than once"),
        ("dialog_id,split,dialog_id\nd0,train,d1\n",
         "line 1: split file header names column 'dialog_id' more than once"),
    ],
    ids=["duplicate-id", "bad-split", "bad-header", "split-twice", "dialog-id-twice"],
)
def test_split_file_error_names_file_and_line(tmp_path, capsys, text, complaint):
    corpus = synthetic_corpus(random.Random(9), 3)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    split_file = tmp_path / "split.csv"
    split_file.write_text(text, encoding="utf-8")
    code = main(["split", "--corpus", str(src), "--output", str(tmp_path / "o"), "--split-file", str(split_file)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {split_file}, {complaint}\n"


@pytest.mark.parametrize(
    "last_row, complaint",
    [("", "split assignment missing for 1 dialog(s), first: 'd00003'"),
     ("d00003,test\nd9,test\n", "split assignment references unknown dialog id 'd9'")],
    ids=["missing", "unknown"],
)
@pytest.mark.parametrize("command", ["split", "score config"])
def test_split_file_that_does_not_match_the_corpus_names_file(tmp_path, capsys, command, last_row, complaint):
    corpus = synthetic_corpus(random.Random(9), 4, with_gold=True)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    split_file = tmp_path / "split.csv"
    split_file.write_text("dialog_id,split\nd00000,train\nd00001,train\nd00002,test\n" + last_row, encoding="utf-8")
    config = {"methods": ["lead_base"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1,
              "corpus": "c.jsonl", "split": "split.csv"}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = {
        "split": ["split", "--corpus", str(src), "--output", str(tmp_path / "o"), "--split-file", str(split_file)],
        "score config": ["score", "--config", str(config_path), "--output-dir", str(tmp_path / "run")],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {split_file}: {complaint}\n"


@pytest.mark.parametrize(
    "setting, complaint",
    [
        ({"n_seeds": 0}, "n_seeds must be >= 1"),
        ({"n_seeds": "2"}, "config key 'n_seeds' must be an integer, got '2'"),
        ({"min_tokens": 0}, "min_tokens must be >= 1"),
        ({"min_tokens": -4, "methods": ["long_base"]}, "min_tokens must be >= 1"),
        ({"perspectives": []}, "config needs at least one perspective"),
        ({"typo": 1}, "unknown config key(s): typo"),
        ("[1, 2]", "expected a JSON object"),
        ("{oops", "invalid JSON (Expecting property name enclosed in double quotes)"),
        pytest.param(f'{{"n_seeds": {LONG_INT}}}', f"invalid JSON ({LONG_INT_ERROR})", marks=NEEDS_INT_LIMIT),
        ('{"n_seeds": ' + "[" * 100_000, "invalid JSON (nested too deeply)"),
        ({"corpus": "c\u0000.jsonl"}, "config key 'corpus' must not contain a NUL character, got 'c\\x00.jsonl'"),
        ({"split": "\u0000"}, "config key 'split' must not contain a NUL character, got '\\x00'"),
        ({"predictions": ["p.jsonl", "q\u0000"]},
         "config key 'predictions' must not contain a NUL character, got 'q\\x00'"),
        # an empty path would name the config's directory
        ({"corpus": ""}, "config key 'corpus' must not be empty"),
        ({"split": ""}, "config key 'split' must not be empty"),
        ({"predictions": ["p.jsonl", ""]}, "config key 'predictions' must not be empty"),
        ('{"methods": ["lead_base"], "perspectives": ["customer"]}', "config has no 'corpus'"),
    ],
    ids=["n-seeds-zero", "n-seeds-string", "min-tokens-zero-lead", "min-tokens-negative-long", "no-perspective",
         "unknown-key", "not-an-object", "bad-json", "long-int", "deep-nesting", "nul-in-corpus", "nul-in-split",
         "nul-in-predictions", "empty-corpus", "empty-split", "empty-predictions", "no-corpus"],
)
def test_config_error_names_config_file(scored_setup, tmp_path, capsys, setting, complaint):
    corpus_path, _ = scored_setup
    config = {"methods": ["lead_base"], "perspectives": ["customer"], "corpus": str(corpus_path)}
    config_path = tmp_path / "bad.json"
    config_path.write_text(setting if isinstance(setting, str) else json.dumps({**config, **setting}), encoding="utf-8")
    assert main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {config_path}: {complaint}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["0", "-1", "x"])
@pytest.mark.parametrize("command", ["weaklabel", "summarize"])
def test_min_tokens_below_one_is_a_usage_error(helpdesk_path, tmp_path, capsys, command, value):
    argv = {
        "weaklabel": ["weaklabel", "--perspective", "agent", "--heuristic", "long"],
        "summarize": ["summarize", "--perspective", "agent", "--method", "long_base"],
    }[command]
    out = tmp_path / "out.jsonl"
    assert main([*argv, "--corpus", str(helpdesk_path), "--min-tokens", value, "--output", str(out)]) == 1
    assert "argument --min-tokens: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, complaint",
    [("--sizes", "-3,4", "sizes must be non-negative, got '-3,4'"),
     ("--sizes", "8,4,4", "sizes must be strictly increasing, got '8,4,4'"),
     ("--sizes", "", "expected at least one size, got ''"),
     ("--seeds", "0", "expected an integer >= 1, got '0'")],
    ids=["subsets-negative", "subsets-repeated", "subsets-empty", "subsets-zero-seeds"],
)
def test_bad_sizes_or_seeds_are_a_usage_error(helpdesk_path, tmp_path, capsys, option, value, complaint):
    out = tmp_path / "out"
    argv = ["subsets", "--corpus", str(helpdesk_path), "--output-dir", str(out)]
    assert main([*argv, f"{option}={value}"]) == 1
    assert capsys.readouterr().err.endswith(f"error: argument {option}: {complaint}\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "x"])
def test_bad_split_seed_is_a_usage_error(tmp_path, capsys, value):
    src = tmp_path / "c.jsonl"
    write_corpus(synthetic_corpus(random.Random(2), 10), src)
    out = tmp_path / "s.jsonl"
    assert main(["split", "--corpus", str(src), "--output", str(out), "--seed", value]) == 1
    assert capsys.readouterr().err.endswith(f"error: argument --seed: expected an integer >= 0, got '{value}'\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "flag", [["--corpus", "c.jsonl"], ["--method", "lead_base"], ["--sizes", "0,16"], ["--min-tokens", "8"],
             ["--prefix-customer", "C: "], ["--prefix-agent", "A: "]],
    ids=lambda flag: flag[0],
)
def test_rate_curve_flag_it_does_not_take_is_a_usage_error(tmp_path, capsys, flag):
    """`rate-curve` measures prediction files only: the flags that fed a built-in method,
    and the prefixes, which never change whether the prefix rule fires, are refused before
    any file is read (an absent prediction file would be exit 2)."""
    out = tmp_path / "rates.csv"
    argv = ["rate-curve", "--predictions", str(tmp_path / "absent.jsonl"), "--perspective", "customer",
            "--output", str(out)]
    assert main([*argv, *flag]) == 1
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("required", ["--predictions", "--perspective", "--output"])
def test_rate_curve_without_a_required_flag_is_a_usage_error(tmp_path, capsys, required):
    """Without prediction files `rate-curve` has nothing to measure, however else it is called."""
    out = tmp_path / "rates.csv"
    flags = {"--predictions": [str(tmp_path / "absent.jsonl")], "--perspective": ["customer"],
             "--output": [str(out)]}
    argv = [arg for flag, values in flags.items() if flag != required for arg in (flag, *values)]
    assert main(["rate-curve", *argv]) == 1
    assert f"the following arguments are required: {required}" in capsys.readouterr().err
    assert not out.exists()


def test_rate_curve_help_lists_only_its_own_flags(capsys):
    assert main(["rate-curve", "--help"]) == 0
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert flags == {"--help", "--predictions", "--perspective", "--output"}


def test_external_method_name_is_refused_before_reading(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["summarize", "--corpus", str(tmp_path / "absent.jsonl"), "--method", "pegasus", "--perspective", "customer"]
    assert main([*argv, "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 'pegasus' is not a built-in method; supply its outputs as prediction files\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "rate-curve"])
def test_negative_prediction_header_is_a_data_error_naming_the_file(scored_setup, tmp_path, capsys, command):
    pred = tmp_path / "neg.jsonl"
    pred.write_text('{"method": "m_post_process", "training_size": -3, "seed": -1}\n'
                    '{"dialog_id": "d1", "customer": "cannot log in", "agent": null}\n', encoding="utf-8")
    config_path = _config_with(tmp_path / "neg.json", scored_setup[1], predictions=[str(pred)])
    out = tmp_path / "out"
    argv = {
        "score": ["score", "--config", str(config_path), "--output-dir", str(out)],
        "rate-curve": ["rate-curve", "--predictions", str(pred), "--perspective", "customer",
                       "--output", str(out)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {pred}, line 1: training_size and seed must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--seed", "7"], ["--seed", "0"], ["--ratios", "0.5,0.25,0.25"],
                                   ["--seed", "7", "--ratios", "0.5,0.25,0.25"]],
                         ids=["seed", "seed-zero", "ratios", "both"])
def test_split_file_with_seed_or_ratios_is_a_usage_error(tmp_path, capsys, flags):
    missing = tmp_path / "absent.jsonl"  # a usage error comes before any file is read
    out = tmp_path / "o"
    argv = ["split", "--corpus", str(missing), "--split-file", str(tmp_path / "s.csv"), *flags, "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "persum split: error: --seed and --ratios are not allowed with --split-file\n"
    assert not out.exists()


def test_tweet_csv_header_error_names_file(tmp_path, capsys):
    src = tmp_path / "tweets.csv"
    src.write_text("tweet_id,text\n1,hi\n", encoding="utf-8")
    code = main(["ingest", "--format", "kaggle-csv", "--input", str(src), "--output", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {src}, line 1: tweet CSV missing column(s): author_id, ")


def test_tweet_csv_header_naming_a_read_column_twice_exits_2(tmp_path, capsys):
    src = tmp_path / "tweets.csv"
    src.write_text(KAGGLE_HEADER.replace("\n", ",text\n") + kaggle_row("1", True, "hi").replace("\n", ",bye\n"),
                   encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    code = main(["ingest", "--format", "kaggle-csv", "--input", str(src), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {src}, line 1: tweet CSV header names column 'text' more than once\n"
    assert not out.exists()


def test_ingest_jsonl_passthrough_round_trip(tmp_path):
    corpus = synthetic_corpus(random.Random(1), 8, with_gold=True, with_split=True)
    src = tmp_path / "in.jsonl"
    dst = tmp_path / "out.jsonl"
    write_corpus(corpus, src)
    assert main(["ingest", "--format", "dialog-jsonl", "--input", str(src), "--output", str(dst)]) == 0
    assert dst.read_bytes() == src.read_bytes()


def test_ingest_missing_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = main(["ingest", "--format", "kaggle-csv", "--input", str(missing), "--output", str(tmp_path / "o")])
    assert code == 2
    assert str(missing) in capsys.readouterr().err


def test_usage_error_exits_1(capsys):
    assert main(["ingest", "--format", "csv"]) == 1
    assert main(["no-such-command"]) == 1


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-collects", "caller-paused"])
@pytest.mark.parametrize("outcome", ["success", "usage-before-command", "usage-in-command", "data-error", "bug"])
def test_main_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, capsys, enabled, outcome):
    corpus_path, out = tmp_path / "c.jsonl", tmp_path / "s.jsonl"
    write_corpus(synthetic_corpus(random.Random(2), 6), corpus_path)
    split = ["split", "--corpus", str(corpus_path), "--output", str(out)]
    argv, code = {
        "success": (split, 0),
        "usage-before-command": ([*split, "--seed", "x"], 1),
        "usage-in-command": ([*split, "--seed", "1", "--split-file", "x.csv"], 1),
        "data-error": ([*split, "--split-file", str(tmp_path / "missing.csv")], 2),
        "bug": (split, None),
    }[outcome]
    seen, read_corpus = [], cli.read_corpus  # whether the collector runs while the command reads
    monkeypatch.setattr(cli, "read_corpus", lambda path: seen.append(gc.isenabled()) or read_corpus(path))
    if outcome == "bug":
        monkeypatch.setattr(cli, "split_corpus", lambda *args: 1 / 0)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(ZeroDivisionError):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if outcome.startswith("usage") else [False])


def _pipeline_garbage(tmp_path, n) -> dict[str, int]:
    """What gc.collect() finds after each of ingest, split, weaklabel, score and report,
    run on inputs of about `n` dialogs."""
    tweets, corpus_path, split_path = tmp_path / "tweets.csv", tmp_path / "corpus.jsonl", tmp_path / "split.jsonl"
    with open(tweets, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(tweet_table(random.Random(n), n))
    scored = tmp_path / "scored.jsonl"
    write_corpus(synthetic_corpus(random.Random(n), n, with_gold=True, with_split=True), scored)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"methods": ["lead_base", "long_post_process_base"], "perspectives": ["customer", "full"],
                                  "sizes": [0, 4], "n_seeds": 2, "corpus": str(scored)}), encoding="utf-8")
    commands = {
        "ingest": ["ingest", "--format", "kaggle-csv", "--input", tweets, "--output", corpus_path],
        "split": ["split", "--corpus", corpus_path, "--output", split_path],
        "weaklabel": ["weaklabel", "--corpus", split_path, "--perspective", "agent", "--heuristic", "long",
                      "--output", tmp_path / "weak.jsonl"],
        "score": ["score", "--config", config, "--output-dir", tmp_path / "run"],
        "report": ["report", "--per-dialog", tmp_path / "run" / "per_dialog_scores.csv", "--output", tmp_path / "r.md"],
    }
    found = {}
    for name, argv in commands.items():
        gc.collect()
        assert main([str(arg) for arg in argv]) == 0
        found[name] = gc.collect()
    return found


def test_commands_leave_garbage_that_does_not_grow_with_the_input(tmp_path, capsys):
    """persum's values hold no reference cycles, so pausing the collector for a command
    holds back only what main itself leaves (its argument parser), whatever the input size."""
    (tmp_path / "small").mkdir()
    (tmp_path / "large").mkdir()
    small = _pipeline_garbage(tmp_path / "small", 40)
    assert _pipeline_garbage(tmp_path / "large", 400) == small


def test_split_command_deterministic(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(2), 10)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    out1 = tmp_path / "s1.jsonl"
    out2 = tmp_path / "s2.jsonl"
    assert main(["split", "--corpus", str(src), "--output", str(out1), "--seed", "5"]) == 0
    assert "train=8" in capsys.readouterr().out
    assert main(["split", "--corpus", str(src), "--output", str(out2), "--seed", "5"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_split_command_honors_split_file(tmp_path):
    corpus = synthetic_corpus(random.Random(2), 3)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    split_file = tmp_path / "split.csv"
    split_file.write_text(
        "dialog_id,split\nd00000,test\nd00001,train\nd00002,val\n", encoding="utf-8"
    )
    out = tmp_path / "s.jsonl"
    assert main(["split", "--corpus", str(src), "--output", str(out), "--split-file", str(split_file)]) == 0
    assert read_corpus(out).split["d00000"].value == "test"


@pytest.mark.parametrize(
    "flags, counts",
    [(["--split-file"], "train=4 val=4 test=4"), (["--ratios", "0,0.5,0.5"], "train=0 val=6 test=6")],
    ids=["split-file-test-first", "empty-train"],
)
def test_split_command_prints_counts_in_split_order(tmp_path, capsys, flags, counts):
    corpus = synthetic_corpus(random.Random(2), 12)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    if flags == ["--split-file"]:  # assignments cycle test, val, train
        split_file = tmp_path / "split.csv"
        cycle = ("test", "val", "train")
        rows = "".join(f"{d.id},{cycle[i % 3]}\n" for i, d in enumerate(corpus.dialogs))
        split_file.write_text("dialog_id,split\n" + rows, encoding="utf-8")
        flags = [*flags, str(split_file)]
    assert main(["split", "--corpus", str(src), "--output", str(tmp_path / "s.jsonl"), *flags]) == 0
    assert capsys.readouterr().out == counts + "\n"


def test_weaklabel_command_counts_add_up(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(3), 40)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("d00000\nd00001\n", encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    coverage_path = tmp_path / "coverage.json"
    code = main(
        [
            "weaklabel",
            "--corpus", str(src),
            "--perspective", "customer",
            "--heuristic", "lead",
            "--masked",
            "--exclude", str(exclude),
            "--output", str(out),
            "--coverage", str(coverage_path),
        ]
    )
    assert code == 0
    coverage = json.loads(capsys.readouterr().out)
    assert coverage == json.loads(coverage_path.read_text(encoding="utf-8"))
    assert coverage["total"] == 40
    assert coverage["excluded"] == 2
    assert coverage["labeled"] + coverage["skipped"] == coverage["total"] - coverage["excluded"]
    assert len(out.read_text(encoding="utf-8").splitlines()) == coverage["labeled"]


def test_weaklabel_refuses_a_coverage_directory_before_writing_pairs(tmp_path, capsys):
    src = tmp_path / "c.jsonl"
    write_corpus(synthetic_corpus(random.Random(3), 10), src)
    out = tmp_path / "pairs.jsonl"
    out.write_bytes(b"old pairs\n")
    (tmp_path / "coverage").mkdir()
    code = main(["weaklabel", "--corpus", str(src), "--perspective", "customer", "--heuristic", "lead",
                 "--output", str(out), "--coverage", str(tmp_path / "coverage")])
    assert code == 2
    assert out.read_bytes() == b"old pairs\n"
    assert capsys.readouterr().err == f"error: cannot write {tmp_path / 'coverage'}: it is a directory\n"


def test_weaklabel_leaves_the_old_pairs_when_the_coverage_cannot_be_written(tmp_path, capsys):
    src = tmp_path / "c.jsonl"
    write_corpus(synthetic_corpus(random.Random(3), 10), src)
    out = tmp_path / "pairs.jsonl"
    out.write_bytes(b"old pairs\n")
    code = main(["weaklabel", "--corpus", str(src), "--perspective", "customer", "--heuristic", "lead",
                 "--output", str(out), "--coverage", str(tmp_path / "nodir" / "cov.json")])
    assert code == 2
    assert out.read_bytes() == b"old pairs\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["c.jsonl", "pairs.jsonl"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: file not found: {tmp_path / 'nodir' / 'cov.json'}")


def test_weaklabel_min_tokens_one_labels_every_dialog(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(4), 15)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    out = tmp_path / "pairs.jsonl"
    code = main(
        [
            "weaklabel",
            "--corpus", str(src),
            "--perspective", "agent",
            "--heuristic", "lead",
            "--min-tokens", "1",
            "--output", str(out),
        ]
    )
    assert code == 0
    coverage = json.loads(capsys.readouterr().out)
    # every synthetic dialog has an agent turn, so nothing is skipped
    assert coverage == {"total": 15, "excluded": 0, "labeled": 15, "skipped": 0}


def test_weaklabel_exclude_everything(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(5), 6)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    exclude = tmp_path / "exclude.txt"
    exclude.write_text("".join(f"{d.id}\n" for d in corpus.dialogs), encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    code = main(
        [
            "weaklabel",
            "--corpus", str(src),
            "--perspective", "customer",
            "--heuristic", "long",
            "--exclude", str(exclude),
            "--output", str(out),
        ]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["labeled"] == 0
    assert out.read_text(encoding="utf-8") == ""


def test_subsets_command_reproducible(tmp_path):
    corpus = synthetic_corpus(random.Random(6), 30, with_split=True)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    args = ["subsets", "--corpus", str(src), "--sizes", "0,8,16", "--seeds", "2"]
    assert main(args + ["--output-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--output-dir", str(tmp_path / "b")]) == 0
    for seed in range(2):
        for size in (0, 8, 16):
            a = (tmp_path / "a" / str(seed) / f"{size}.txt").read_bytes()
            assert a == (tmp_path / "b" / str(seed) / f"{size}.txt").read_bytes()
    assert len((tmp_path / "a" / "0" / "16.txt").read_text().splitlines()) == 16


def test_summarize_command(helpdesk_path, tmp_path, capsys):
    out = tmp_path / "cands.jsonl"
    code = main(
        [
            "summarize",
            "--corpus", str(helpdesk_path),
            "--method", "lead_post_process_base",
            "--perspective", "customer",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert "candidates: 1" in capsys.readouterr().out
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["method"] == "lead_post_process_base"
    assert record["text"].startswith("The customer says: Hi, I updated my OS")
    assert record["post_processed"] is True


def test_summarize_rejects_external_method(helpdesk_path, tmp_path, capsys):
    code = main(
        [
            "summarize",
            "--corpus", str(helpdesk_path),
            "--method", "pegasus",
            "--perspective", "customer",
            "--output", str(tmp_path / "x.jsonl"),
        ]
    )
    assert code == 2
    assert "pegasus" in capsys.readouterr().err


# sha256 of what `summarize` wrote on the helpdesk fixture while each candidate still
# carried its dialog id, method and perspective
SUMMARIZE_SHA256 = {
    ("lead_post_process_base", "customer"): "a0faed6ac75b2fbc2857e2bc0b1353820e8fac3dc8e160bd5cc80c5cda0b5aee",
    ("lead_long_post_process_base", "full"): "24d2c2289eb60647f94af64d89c5e198028bfa4243cf2138b6849dde8a10f9bf",
}


@pytest.mark.parametrize("method, perspective", list(SUMMARIZE_SHA256))
def test_summarize_bytes_pinned(helpdesk_path, tmp_path, method, perspective):
    out = tmp_path / "cands.jsonl"
    argv = ["summarize", "--corpus", str(helpdesk_path), "--method", method, "--perspective", perspective]
    assert main([*argv, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUMMARIZE_SHA256[(method, perspective)]


# Runs score, report, subsets and rate-curve on a seeded corpus from
# util.synthetic_corpus, with three built-in methods and one external method whose
# prediction files lack some entries and parts (rate-curve measures those files for each
# perspective), and prints each output's sha256.
SCORE_PIPELINE = r"""
import hashlib, json, random, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from persum.corpus import Split, write_corpus
from persum.cli import main
from util import random_text, synthetic_corpus

corpus = synthetic_corpus(random.Random(16), 60, with_gold=True, with_split=True, train_fraction=0.5)
write_corpus(corpus, "corpus.jsonl")
sizes, n_seeds, external = [0, 4, 16], 2, "pegasus_post_process"
methods = ["long_base", "lead_post_process_base", "lead_long_post_process_base", external]
predictions = []
for size in sizes:
    for seed in range(n_seeds):
        rand = random.Random(100 * size + seed)
        records = [{"method": external, "training_size": size, "seed": seed}]
        for did in corpus.dialog_ids(Split.TEST):
            if rand.random() < 0.2:
                continue
            parts = [None if rand.random() < 0.15 else rand.choice(("", "the customer ", "Agent ")) + random_text(rand)
                     for _ in range(2)]
            records.append({"dialog_id": did, "customer": parts[0], "agent": parts[1]})
        predictions.append(f"pred_{size}_{seed}.jsonl")
        Path(predictions[-1]).write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
config = {"methods": methods, "perspectives": ["customer", "agent", "full"], "sizes": sizes,
          "n_seeds": n_seeds, "min_tokens": 8, "corpus": "corpus.jsonl", "predictions": predictions}
Path("config.json").write_text(json.dumps(config), encoding="utf-8")
commands = [
    ["score", "--config", "config.json", "--output-dir", "out"],
    ["report", "--per-dialog", "out/per_dialog_scores.csv", "--format", "csv", "--output", "report.csv"],
    ["subsets", "--corpus", "corpus.jsonl", "--output-dir", "subsets", "--sizes", "0,4,16", "--seeds", "2"],
]
for perspective in ("customer", "agent", "full"):
    commands.append(["rate-curve", "--predictions", *predictions, "--perspective", perspective,
                     "--output", f"rate_{perspective}.csv"])
codes = [main(argv) for argv in commands]
outputs = [Path(name) for name in ("out/report.md", "out/per_dialog_scores.csv", "report.csv")]
outputs += sorted(Path("subsets").rglob("*.txt")) + sorted(Path().glob("rate_*.csv"))
digests = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in outputs}
print(json.dumps({"codes": codes, "sha256": digests}))
"""

# sha256 of each output of SCORE_PIPELINE, and of the warnings it prints, as written while
# every Utterance still stored its token count
SCORE_PIPELINE_SHA256 = {
    "out/report.md": "e82b4de23c0bd19c872d479f6c7ec39c6c5d3827af70054fc4347e3472bd5201",
    "out/per_dialog_scores.csv": "cdfbf97aed8ebd88d47b87ad1c26e32a48daa6563bd4514bc6dff4a40cff8aa3",
    "report.csv": "4db666364c9620c02c5e0ca7b9dd4b3c40d0671f33ba334d91ef085dbb157a54",
    "subsets/0/0.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "subsets/0/16.txt": "9a4567b6f0acd67500a979a31350b319720d9588bad74bd47ced6e170365b9f9",
    "subsets/0/4.txt": "5f71d3b197fdfe7b327a2e5c100309baf496de47b1d1e9eaad243aa0d745a82a",
    "subsets/1/0.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "subsets/1/16.txt": "f102ad2a6fa503cfecad92a47a63e080f772118ca73b29276a61f9e246df3dfd",
    "subsets/1/4.txt": "c0d705a67aa476f77356abd4816f409abf052a9ca61ed2a7e780fadcd181e11d",
    "rate_agent.csv": "cee0e76c10f1848bda952e97e7ba939796915a9b5cce01f2a3fa2bdedfe6d453",
    "rate_customer.csv": "05ce74c6a45baf6ce310425a7b29e1aa121b71f1cae17b7321c5f863a287896f",
    "rate_full.csv": "b2e60d144f57c842cbafba07b2a4ed5c716be830873be6ac03283e3a70041fc3",
    "stderr": "cab45c0bfd3994435f840dfdb5a7d438c73c0d0f1b655437881a46475fefbe33",
}


def test_score_report_subsets_rate_curve_bytes_pinned(tmp_path):
    paths = [str(Path(cli.__file__).resolve().parents[1]), str(Path(__file__).parent)]
    runs = []
    for hash_seed in ("0", "4242"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        run_dir = tmp_path / hash_seed
        run_dir.mkdir()
        done = subprocess.run([sys.executable, "-c", SCORE_PIPELINE, *paths], cwd=run_dir, env=env,
                              capture_output=True, text=True, check=True)
        run = json.loads(done.stdout.splitlines()[-1])
        run["sha256"]["stderr"] = hashlib.sha256(done.stderr.encode()).hexdigest()
        runs.append(run)
    assert runs[0] == runs[1]
    assert runs[0]["codes"] == [0] * 6
    assert runs[0]["sha256"] == SCORE_PIPELINE_SHA256


def test_score_and_report_write_the_same_bytes_under_two_hash_seeds(tmp_path):
    """`python -m persum.cli score`, then `report` on its dump, write the same files and
    the same warnings whatever PYTHONHASHSEED the interpreter runs under."""
    rand = random.Random(31)
    corpus = synthetic_corpus(rand, 40, with_gold=True, with_split=True, train_fraction=0.5)
    write_corpus(corpus, tmp_path / "corpus.jsonl")
    records = [{"method": "pegasus", "training_size": 0, "seed": 0}]
    records += [{"dialog_id": did, "customer": random_text(rand), "agent": None if rand.random() < 0.3 else ""}
                for did in corpus.dialog_ids(Split.TEST) if rand.random() < 0.7]
    (tmp_path / "pegasus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    config = {"methods": ["lead_post_process_base", "long_base", "pegasus"],
              "perspectives": ["customer", "agent", "full"], "sizes": [0], "n_seeds": 1,
              "corpus": "corpus.jsonl", "predictions": ["pegasus.jsonl"]}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    runs = []
    for hash_seed in ("0", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        out = f"out{hash_seed}"
        stderr = b""
        for argv in (["score", "--config", "config.json", "--output-dir", out],
                     ["report", "--per-dialog", f"{out}/per_dialog_scores.csv", "--format", "csv",
                      "--output", f"{out}/report.csv"]):
            done = subprocess.run([sys.executable, "-m", "persum.cli", *argv], cwd=tmp_path, env=env,
                                  capture_output=True)
            assert done.returncode == 0, done.stderr
            stderr += done.stderr
        runs.append((stderr, {path.name: path.read_bytes() for path in (tmp_path / out).iterdir()}))
    assert runs[0][0].count(b"warning: ") > 1
    assert sorted(runs[0][1]) == ["per_dialog_scores.csv", "report.csv", "report.md"]
    assert runs[0] == runs[1]

@pytest.mark.parametrize("command", ["score", "report", "rate-curve", "subsets"])
def test_output_name_that_is_not_utf8_prints_escaped_on_a_strict_stdout(scored_setup, tmp_path, command):
    """A byte that is not UTF-8 reaches argv as a lone surrogate, which a stdout that
    encodes strictly cannot print: the output is written, and its name printed with the
    byte as an escape. A name that is UTF-8 prints as it is."""
    corpus_path, config_path = scored_setup
    dump = tmp_path / "scored" / "per_dialog_scores.csv"
    if command == "report":
        assert main(["score", "--config", str(config_path), "--output-dir", str(dump.parent)]) == 0
    predictions = _prediction_file(tmp_path / "pred.jsonl", "pegasus_post_process", ["d1", "d2"])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict", "PYTHONPATH": src}
    for name, shown in [(b"out\xff", b"out\\xff"), ("outé".encode(), "outé".encode())]:
        out = os.fsencode(tmp_path) + b"/" + name
        argv = {
            "score": ["score", "--config", config_path, "--output-dir", out],
            "report": ["report", "--per-dialog", dump, "--output", out],
            "rate-curve": ["rate-curve", "--predictions", predictions, "--perspective", "customer", "--output", out],
            "subsets": ["subsets", "--corpus", corpus_path, "--sizes", "0,4", "--seeds", "1", "--output-dir", out],
        }[command]
        done = subprocess.run([sys.executable, "-m", "persum.cli", *argv], env=env, capture_output=True)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout.endswith(b" " + os.fsencode(tmp_path) + b"/" + shown + b"\n")
        assert os.path.exists(out)


@pytest.mark.parametrize("name, fmt, message", [
    (b"nonexist\xff.csv", "kaggle-csv", b"error: file not found: %s\n"),
    (b"bad\xff.jsonl", "dialog-jsonl", b"error: %s, line 1: invalid JSON (Expecting value)\n"),
])
def test_error_naming_a_file_that_is_not_utf8_prints_escaped_on_a_strict_stderr(tmp_path, name, fmt, message):
    """An `error:` line shows the file's name as stdout does, with a byte that is not UTF-8
    as an escape, so a stderr that encodes strictly prints it."""
    path = os.fsencode(tmp_path) + b"/" + name
    if fmt == "dialog-jsonl":
        Path(os.fsdecode(path)).write_text("not json\n", encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONIOENCODING": "utf-8:strict", "PYTHONPATH": src}
    argv = ["ingest", "--format", fmt, "--input", path, "--output", tmp_path / "out.jsonl"]
    done = subprocess.run([sys.executable, "-m", "persum.cli", *argv], env=env, capture_output=True)
    shown = path.replace(b"\xff", b"\\xff")
    assert (done.returncode, done.stdout, done.stderr) == (2, b"", message % shown)
    assert not (tmp_path / "out.jsonl").exists()


@given(st.lists(st.integers(0, sys.maxunicode)).map(lambda points: "".join(map(chr, points))))
def test_shown_is_utf8_for_any_text_and_keeps_text_without_surrogates(text):
    shown = cli._shown(text)
    shown.encode("utf-8")
    if not re.search("[\ud800-\udfff]", text):
        assert shown == text


def test_shown_escapes_each_lone_surrogate():
    assert cli._shown("a\udcffb\ud800\udc7f\udfff") == "a\\xffb\\ud800\\udc7f\\udfff"


@pytest.mark.parametrize("flag", ["--prefix-customer", "--prefix-agent"])
def test_prefix_that_is_not_utf8_is_a_usage_error(scored_setup, tmp_path, capsys, flag):
    """A byte that is not UTF-8 reaches argv as a lone surrogate, which `summarize` could
    not write into its output."""
    corpus_path, _ = scored_setup
    out = tmp_path / "out"
    argv = ["summarize", "--corpus", str(corpus_path), "--method", "lead_post_process_base",
            "--perspective", "customer", "--output", str(out)]
    assert main([*argv, flag, b"\xff says: ".decode("utf-8", "surrogateescape")]) == 1
    assert f"argument {flag}: expected UTF-8 text, got '\\udcff says: '\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "method, perspective, message",
    [
        ("lead_base", "full", "names one heuristic; the full perspective needs a two-sided method such as "
                              "'lead_long_post_process_base'"),
        ("lead_long_base", "agent", "applies only to the full perspective"),
    ],
    ids=["one-sided-full", "two-sided-agent"],
)
def test_method_that_does_not_apply_writes_nothing(helpdesk_path, tmp_path, capsys, method, perspective, message):
    out = tmp_path / "out"
    out.write_bytes(b"kept\n")
    argv = ["summarize", "--corpus", str(helpdesk_path), "--method", method, "--perspective", perspective]
    assert main([*argv, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: method {method!r} {message}\n"
    assert out.read_bytes() == b"kept\n"


@pytest.fixture
def scored_setup(tmp_path):
    corpus = synthetic_corpus(random.Random(7), 20, with_gold=True, with_split=True)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    config = {
        "methods": ["lead_base", "lead_post_process_base", "long_post_process_base"],
        "perspectives": ["customer", "agent"],
        "sizes": [0, 4],
        "n_seeds": 2,
        "corpus": str(corpus_path),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return corpus_path, config_path


def test_score_end_to_end_base_rows_constant(scored_setup, tmp_path, capsys):
    _, config_path = scored_setup
    out_dir = tmp_path / "run"
    code = main(
        ["score", "--config", str(config_path), "--report", "csv", "--output-dir", str(out_dir)]
    )
    assert code == 0
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["perspective", "rouge", "method", "0", "4"]
    for row in rows[1:]:
        assert row[3] == row[4], f"base method row varies across sizes: {row}"
    assert (out_dir / "per_dialog_scores.csv").exists()


def test_score_idempotent_bytes(scored_setup, tmp_path):
    _, config_path = scored_setup
    for name in ("r1", "r2"):
        assert main(["score", "--config", str(config_path), "--report", "md", "--output-dir", str(tmp_path / name)]) == 0
    for filename in ("report.md", "per_dialog_scores.csv"):
        assert (tmp_path / "r1" / filename).read_bytes() == (tmp_path / "r2" / filename).read_bytes()


def test_score_missing_external_cells_exit_2(scored_setup, tmp_path, capsys):
    corpus_path, _ = scored_setup
    config = {
        "methods": ["pegasus"],
        "perspectives": ["customer"],
        "sizes": [0],
        "n_seeds": 1,
        "corpus": str(corpus_path),
    }
    config_path = tmp_path / "ext.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "runx")])
    assert code == 2
    err = capsys.readouterr().err
    assert "pegasus" in err and "seed=0" in err


def test_score_strict_missing_flag(scored_setup, tmp_path, capsys):
    corpus_path, _ = scored_setup
    config = {
        # a 5-token lead threshold finds no candidate in some dialogs with
        # short customer turns, which strict mode turns into an error
        "methods": ["lead_base"],
        "perspectives": ["customer"],
        "sizes": [0],
        "n_seeds": 1,
        "min_tokens": 50,
        "strict_missing": True,
        "corpus": str(corpus_path),
    }
    config_path = tmp_path / "strict.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "s")])
    assert code == 2
    assert "no candidate" in capsys.readouterr().err


def test_score_prefix_override(scored_setup, tmp_path):
    corpus_path, _ = scored_setup
    config = {
        "methods": ["lead_post_process_base"],
        "perspectives": ["customer"],
        "sizes": [0],
        "n_seeds": 1,
        "corpus": str(corpus_path),
    }
    config_path = tmp_path / "prefix.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    # one token longer than the default, so precision denominators move
    custom_path = _config_with(tmp_path / "custom.json", config_path, prefix_customer="The customer says that ")
    out_a = tmp_path / "default_prefix"
    out_b = tmp_path / "custom_prefix"
    assert main(["score", "--config", str(config_path), "--output-dir", str(out_a)]) == 0
    assert main(["score", "--config", str(custom_path), "--output-dir", str(out_b)]) == 0
    a = (out_a / "per_dialog_scores.csv").read_bytes()
    b = (out_b / "per_dialog_scores.csv").read_bytes()
    assert a != b


def test_report_command_recomputes_from_dump(scored_setup, tmp_path):
    _, config_path = scored_setup
    out_dir = tmp_path / "run"
    assert main(["score", "--config", str(config_path), "--report", "md", "--output-dir", str(out_dir)]) == 0
    regenerated = tmp_path / "report2.md"
    code = main(
        ["report", "--per-dialog", str(out_dir / "per_dialog_scores.csv"), "--format", "md", "--output", str(regenerated)]
    )
    assert code == 0
    assert regenerated.read_text(encoding="utf-8") == (out_dir / "report.md").read_text(encoding="utf-8")


def test_report_equals_score_report_when_runs_score_nothing(tmp_path, capsys):
    # method_a scores seed 0 only at size 0 and nothing at size 16, while
    # method_b scores every dialog: an empty run adds no run mean and a cell
    # with no run renders "-", in score's report and in report's alike
    corpus = synthetic_corpus(random.Random(11), 25, with_gold=True, with_split=True)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    dialogs = corpus.by_id()
    prediction_paths = []
    for method in ("method_a", "method_b"):
        for size in (0, 16):
            for seed in (0, 1):
                real = method == "method_b" or (size, seed) == (0, 0)
                lines = [json.dumps({"method": method, "training_size": size, "seed": seed})]
                for did in corpus.dialog_ids(Split.TEST):
                    text = dialogs[did].utterances[0].text if real else None
                    lines.append(json.dumps({"dialog_id": did, "customer": text, "agent": None}))
                path = tmp_path / f"{method}_{size}_{seed}.jsonl"
                path.write_text("\n".join(lines) + "\n", encoding="utf-8")
                prediction_paths.append(str(path))
    config = {
        "methods": ["method_a", "method_b"],
        "perspectives": ["customer"],
        "sizes": [0, 16],
        "n_seeds": 2,
        "corpus": str(corpus_path),
        "predictions": prediction_paths,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    reports = {}
    for fmt in ("md", "csv"):
        out_dir = tmp_path / f"run_{fmt}"
        assert main(["score", "--config", str(config_path), "--report", fmt, "--output-dir", str(out_dir)]) == 0
        assert "method_a/customer: no dialog scored at size=16, seed=1" in capsys.readouterr().err
        regenerated = tmp_path / f"regenerated.{fmt}"
        dump = str(out_dir / "per_dialog_scores.csv")
        assert main(["report", "--per-dialog", dump, "--format", fmt, "--output", str(regenerated)]) == 0
        assert regenerated.read_bytes() == (out_dir / f"report.{fmt}").read_bytes()
        reports[fmt] = regenerated.read_text(encoding="utf-8")

    a_rows = [line for line in reports["md"].splitlines() if line.startswith("| method_a |")]
    assert len(a_rows) == 3
    for line in a_rows:
        _, size_0, size_16 = line.strip("| ").split(" | ")
        assert "±" not in size_0  # one run at size 0: no deviation
        assert size_16 == "-"
    a_rows = [row for row in csv.reader(reports["csv"].splitlines()) if row[2] == "method_a"]
    assert len(a_rows) == 3
    assert all(row[4] == "-" and "±" not in row[3] for row in a_rows)
    assert "method_b" in reports["md"] and "method_b" in reports["csv"]


DUMP_HEADER = "dialog_id,method,perspective,size,seed,r1_p,r1_r,r1_f,r2_f,rl_f\n"


@pytest.mark.parametrize(
    "row, complaint",
    [
        ("d1,pegasus,customer,0,0,0.5,0.5\n", "per-dialog dump row has 7 field(s), the header has 10"),
        ("d1,pegasus,customer,0,0,0.5,0.5,abc,0.5,0.5\n", "r1_f: could not convert string to float: 'abc'"),
        ("d1,pegasus,speaker,0,0,0.5,0.5,0.5,0.5,0.5\n", "perspective: 'speaker' is not a valid Perspective"),
        ("d1,pegasus,customer,1.5,0,0.5,0.5,0.5,0.5,0.5\n", "size: invalid literal for int()"),
        ("d1,pegasus,customer,0,0,0.5,0.5,0.5,0.5,nan\n", "rl_f: 'nan' is not a score in [0, 1]"),
    ],
    ids=["missing-columns", "non-numeric-score", "bad-perspective", "non-integer-size", "nan-score"],
)
def test_report_names_file_and_line_of_a_malformed_dump_row(tmp_path, capsys, row, complaint):
    dump = tmp_path / "broken.csv"
    dump.write_text(DUMP_HEADER + row, encoding="utf-8")
    code = main(["report", "--per-dialog", str(dump), "--output", str(tmp_path / "report.md")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dump}, line 2: {complaint}")
    assert not (tmp_path / "report.md").exists()


def test_report_on_a_dump_without_rows_names_the_file(tmp_path, capsys):
    dump = tmp_path / "empty.csv"
    dump.write_text(DUMP_HEADER + "\n", encoding="utf-8")
    assert main(["report", "--per-dialog", str(dump), "--output", str(tmp_path / "report.md")]) == 2
    assert capsys.readouterr().err == f"error: {dump}: per-dialog dump is empty\n"
    assert not (tmp_path / "report.md").exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_report_reads_a_dump_piped_to_dev_stdin_as_it_reads_the_file(tmp_path):
    """A dump of built-in runs that share their scores, larger than a read buffer, piped in:
    nothing may read the pipe ahead of the report's own reads."""
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(synthetic_corpus(random.Random(7), 300, with_gold=True, with_split=True), corpus_path)
    config = {"methods": ["lead_base", "long_post_process_base"], "perspectives": ["customer", "agent"],
              "sizes": [0, 4, 8], "n_seeds": 3, "corpus": str(corpus_path)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "run")]) == 0
    dump = tmp_path / "run" / "per_dialog_scores.csv"
    assert dump.stat().st_size > 64 * 1024
    assert main(["report", "--per-dialog", str(dump), "--output", str(tmp_path / "from_file.md")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "persum.cli", "report", "--per-dialog", "/dev/stdin", "--output", str(tmp_path / "piped.md")]
    done = subprocess.run(argv, input=dump.read_bytes(), env=env, capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    assert (tmp_path / "piped.md").read_bytes() == (tmp_path / "from_file.md").read_bytes()


def test_report_names_the_pipe_of_an_undecodable_byte_in_a_dump_piped_to_dev_stdin(tmp_path):
    """Each line is decoded as it is read, so an undecodable byte in a dump piped in is
    named by its line and its offset in the input, as in a file."""
    rows = "".join(f"d{i},pegasus,customer,0,0,0.5,0.5,0.5,0.5,0.5\n" for i in range(20_000)).encode()
    data = DUMP_HEADER.encode() + rows[:1_000] + b"\xff" + rows[1_000:500_000] + b"\xff" + rows[500_000:]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "persum.cli", "report", "--per-dialog", "/dev/stdin", "--output", str(tmp_path / "piped.md")]
    done = subprocess.run(argv, input=data, env=env, capture_output=True)
    assert done.returncode == 2
    line, message = naive_undecodable_byte(data)
    assert done.stderr.decode() == f"error: /dev/stdin, line {line}: {message}\n"
    assert (line, message) == (24, "'utf-8' codec can't decode byte 0xff at offset 1064: invalid start byte")
    assert not (tmp_path / "piped.md").exists()


def test_report_rejects_a_dialog_repeated_within_its_run(tmp_path, capsys):
    dump = tmp_path / "repeated.csv"
    rows = ["d1,pegasus,customer,0,0,0.5,0.5,0.5,0.5,0.5", "d2,pegasus,customer,0,0,0.1,0.1,0.1,0.1,0.1"]
    dump.write_text(DUMP_HEADER + "\n".join(rows + rows[:1]) + "\n", encoding="utf-8")
    code = main(["report", "--per-dialog", str(dump), "--output", str(tmp_path / "report.md")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {dump}, line 4: dialog 'd1' repeats in run (pegasus, customer, size=0, seed=0)\n"
    )
    assert not (tmp_path / "report.md").exists()
    # the same row in another run is no repeat: each run has its own mean
    dump.write_text(DUMP_HEADER + "\n".join(rows + [rows[0].replace(",0,0,", ",0,1,")]) + "\n", encoding="utf-8")
    assert main(["report", "--per-dialog", str(dump), "--output", str(tmp_path / "report.md")]) == 0
    assert "| pegasus | 40.00 (±14.14) |" in (tmp_path / "report.md").read_text(encoding="utf-8")


def test_score_leaves_no_partial_output_when_the_dump_write_fails(scored_setup, tmp_path, monkeypatch, capsys):
    _, config_path = scored_setup
    write = cli.write_per_dialog_csv

    def fail_after_the_first_run(runs, path):
        write(dict([next(iter(runs.items()))]), path)
        raise OSError(f"{path}: no space left on device")

    monkeypatch.setattr(cli, "write_per_dialog_csv", fail_after_the_first_run)
    out_dir = tmp_path / "run"
    code = main(["score", "--config", str(config_path), "--report", "md", "--output-dir", str(out_dir)])
    assert code == 2
    assert "no space left on device" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("blocked", ["per_dialog_scores.csv"])
def test_score_refuses_a_target_it_cannot_replace_before_replacing_any(scored_setup, tmp_path, capsys, blocked):
    """A dump path taken by a directory ends the run with exit 2 while the report still
    holds the bytes of the run before."""
    _, config_path = scored_setup
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    old = {"report.md": b"old report\n", "per_dialog_scores.csv": b"old dump\n"}
    for name, data in old.items():
        (out_dir / name).write_bytes(data)
    (out_dir / blocked).unlink()
    (out_dir / blocked).mkdir()
    del old[blocked]
    code = main(["score", "--config", str(config_path), "--output-dir", str(out_dir)])
    assert code == 2
    assert {name: (out_dir / name).read_bytes() for name in old} == old
    assert sorted(path.name for path in out_dir.iterdir()) == ["per_dialog_scores.csv", "report.md"]
    assert capsys.readouterr().err.endswith(f"error: cannot write {out_dir / blocked}: it is a directory\n")


def test_score_subsets_is_a_usage_error(scored_setup, tmp_path, capsys):
    """`persum subsets` alone writes the subsets/<seed>/<size>.txt tree, and the config
    alone names the corpus, split, prediction files, prefixes and strictness of a run."""
    _, config_path = scored_setup
    out_dir = tmp_path / "run"
    for flag in (["--subsets"], ["--corpus", "c.jsonl"], ["--split", "s.csv"], ["--predictions", "p.jsonl"],
                 ["--prefix-customer", "C: "], ["--prefix-agent", "A: "], ["--strict-missing"]):
        assert main(["score", "--config", str(config_path), "--output-dir", str(out_dir), *flag]) == 1
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not out_dir.exists()


# each command that writes files: its argv (with the inputs that `scored_setup`, a dump
# at <tmp>/scored and a prediction file hold, and its outputs under <tmp>/out), its outputs, and the
# name in `cli` of the writer each output is written by
WRITING_COMMANDS = {
    "ingest": (["ingest", "--format", "dialog-jsonl", "--input", "{corpus}", "--output", "{out}/corpus.jsonl"],
               [("corpus.jsonl", "write_corpus")]),
    "split": (["split", "--corpus", "{corpus}", "--output", "{out}/split.jsonl"], [("split.jsonl", "write_corpus")]),
    "weaklabel": (["weaklabel", "--corpus", "{corpus}", "--perspective", "customer", "--heuristic", "lead",
                   "--output", "{out}/pairs.jsonl", "--coverage", "{out}/coverage.json"],
                  [("pairs.jsonl", "write_weak_pairs"), ("coverage.json", "_write_text")]),
    "summarize": (["summarize", "--corpus", "{corpus}", "--method", "lead_post_process_base",
                   "--perspective", "customer", "--output", "{out}/cands.jsonl"], [("cands.jsonl", "_write_text")]),
    "score": (["score", "--config", "{config}", "--output-dir", "{out}"],
              [("report.md", "_write_text"), ("per_dialog_scores.csv", "write_per_dialog_csv")]),
    "report": (["report", "--per-dialog", "{dump}", "--output", "{out}/report.md"], [("report.md", "_write_text")]),
    "rate-curve": (["rate-curve", "--predictions", "{predictions}", "--perspective", "customer",
                    "--output", "{out}/rate.csv"], [("rate.csv", "_write_text")]),
}


(_COMMANDS,) = [action.choices for action in cli.build_parser()._actions if action.dest == "command"]


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_argument_a_subcommand_does_not_take_is_named_by_that_subcommand(tmp_path, capsys, command):
    """An unknown flag is a usage error (exit 1) reported with the subcommand's own usage line
    and `persum <command>: error:`, so the usage shows the flags that the command does take."""
    argv = ["subsets", "--corpus", "c.jsonl", "--output-dir", "{out}"] if command == "subsets" \
        else WRITING_COMMANDS[command][0]
    argv = [arg.replace("{out}", str(tmp_path / "out")) for arg in argv]
    assert main([*argv, "--no-such-flag", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: persum {command} [-h] ")
    assert err.endswith(f"\npersum {command}: error: unrecognized arguments: --no-such-flag 0\n")
    assert not (tmp_path / "out").exists()


def _cut_short(write):
    """`write` that writes the first half of its file and then fails as a full disk does."""

    def partial(value, path, *rest):
        write(value, path, *rest)
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) // 2)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    return partial


@pytest.mark.parametrize("failure", ["directory", "temporary-directory", "write-with-old-outputs", "write-without-old-outputs"])
@pytest.mark.parametrize(
    "command, failing", [(command, i) for command, (_, outs) in WRITING_COMMANDS.items() for i in range(len(outs))]
)
def test_a_command_that_exits_2_leaves_every_output_as_it_was(scored_setup, tmp_path, monkeypatch, capsys,
                                                              command, failing, failure):
    """Every file-writing command writes all its outputs or none: an output path, or its
    `.tmp` path, taken by a directory is refused before anything is written, and a write
    that fails part-way leaves each output with its old bytes, or absent, and no temporary
    behind."""
    corpus_path, config_path = scored_setup
    dump = tmp_path / "scored" / "per_dialog_scores.csv"
    if command == "report":
        assert main(["score", "--config", str(config_path), "--output-dir", str(dump.parent)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    predictions = _prediction_file(tmp_path / "pred.jsonl", "pegasus_post_process", ["d1", "d2"])
    template, outputs = WRITING_COMMANDS[command]
    argv = [arg.format(corpus=corpus_path, config=config_path, dump=dump, predictions=predictions, out=out)
            for arg in template]
    old = {name: f"old {name}\n".encode() for name, _ in outputs} if failure != "write-without-old-outputs" else {}
    for name, data in old.items():
        (out / name).write_bytes(data)
    target, writer = out / outputs[failing][0], outputs[failing][1]
    if failure == "directory":
        target.unlink()
        target.mkdir()
        del old[target.name]
        message = f"cannot write {target}: it is a directory"
    elif failure == "temporary-directory":
        (out / f"{target.name}.tmp").mkdir()
        message = f"cannot write {target}: {target}.tmp is a directory"
    else:
        monkeypatch.setattr(cli, writer, _cut_short(getattr(cli, writer)))
        message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{target}'"
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.is_file()} == old
    names = sorted(path.name for path in out.iterdir())
    directories = {"directory": [target.name], "temporary-directory": [f"{target.name}.tmp"]}.get(failure, [])
    assert names == sorted([*old, *directories])


@pytest.mark.parametrize(
    "output, coverage, named",
    [("x", "x", "x"), ("x", "./x", "x"), ("x.tmp", "x", "x.tmp"), ("x", "x.tmp", "x.tmp")],
    ids=["same", "same-file", "output-is-temporary", "coverage-is-temporary"],
)
def test_outputs_that_share_a_file_are_refused(scored_setup, tmp_path, monkeypatch, capsys, output, coverage, named):
    """Each output is written to its own temporary and renamed; two outputs, or an output and
    another's temporary, that are one file would overwrite each other, so nothing is written."""
    corpus_path, _ = scored_setup
    monkeypatch.chdir(tmp_path)
    Path("x").write_bytes(b"old x\n")
    argv = ["weaklabel", "--corpus", str(corpus_path), "--perspective", "customer", "--heuristic", "lead",
            "--output", output, "--coverage", coverage]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: cannot write {named}: another output of the command uses "
                                                "the same file\n")
    assert {path.name: path.read_bytes() for path in Path().iterdir() if path.name.startswith("x")} == {"x": b"old x\n"}


def test_a_cleanup_that_fails_leaves_the_error_of_the_write(scored_setup, tmp_path, monkeypatch, capsys):
    """A write that leaves a directory at its `.tmp` path and then fails: the temporary
    cannot be removed, and the write's own error is the one reported."""
    corpus_path, _ = scored_setup
    target = tmp_path / "corpus.jsonl"

    def fail(corpus, path):
        os.mkdir(path)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    monkeypatch.setattr(cli, "write_corpus", fail)
    assert main(["ingest", "--format", "dialog-jsonl", "--input", str(corpus_path), "--output", str(target)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{target}'\n"


def test_score_lets_a_bug_raise_instead_of_exiting_2(scored_setup, tmp_path, monkeypatch):
    """main turns only CorpusError, ExperimentError and OSError into exit 2, so a
    ValueError from inside the kernel ends in a traceback, not as a data error."""
    _, config_path = scored_setup

    def broken_kernel(candidate, ref):
        raise ValueError("kernel bug")

    monkeypatch.setattr(rouge, "_rouge_counts", broken_kernel)
    with pytest.raises(ValueError, match="^kernel bug$"):
        main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "run")])


def test_score_prints_warnings_before_the_error_that_ends_it(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(5), 20, with_gold=True, with_split=True)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    test_ids = corpus.dialog_ids(Split.TEST)
    lines = [json.dumps({"method": "pegasus", "training_size": 0, "seed": 0})]
    lines += [json.dumps({"dialog_id": did, "customer": None, "agent": None}) for did in test_ids]
    predictions = tmp_path / "pegasus.jsonl"
    predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {"methods": ["pegasus"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1,
              "corpus": str(corpus_path), "predictions": [str(predictions)]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    code = main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"warning: pegasus/customer: no prediction for dialog {did} (size=0, seed=0)" for did in test_ids
    ] + ["warning: pegasus/customer: no dialog scored at size=0, seed=0", "error: no dialog scored in any cell"]


def _prediction_file(path, method, dialog_ids, text="The customer wants a refund", size=0, seed=0):
    lines = [json.dumps({"method": method, "training_size": size, "seed": seed})]
    lines += [json.dumps({"dialog_id": did, "customer": text, "agent": None}) for did in dialog_ids]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_score_duplicate_prediction_cell_exits_2_before_scoring(tmp_path, capsys):
    """The error names both files, and comes before scoring would warn of the missing gold."""
    corpus = synthetic_corpus(random.Random(5), 20, with_gold=True, with_split=True)
    test_ids = corpus.dialog_ids(Split.TEST)
    del corpus.gold[test_ids[0]]
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    first, second = (_prediction_file(tmp_path / name, "pegasus", test_ids) for name in ("a.jsonl", "b.jsonl"))
    config = {"methods": ["pegasus"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1,
              "corpus": str(corpus_path), "predictions": [first, second]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    code = main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {second}: duplicate prediction set for cell (pegasus, size=0, seed=0), first in {first}\n"
    )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, entry", [("methods", "pegasus"), ("perspectives", "customer")])
def test_score_config_repeating_an_entry_exits_2(tmp_path, capsys, key, entry):
    corpus = synthetic_corpus(random.Random(5), 20, with_gold=True, with_split=True)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    predictions = _prediction_file(tmp_path / "p.jsonl", "pegasus", corpus.dialog_ids(Split.TEST))
    config = {"methods": ["pegasus", "lead_base"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1,
              "corpus": str(corpus_path), "predictions": [predictions]}
    config[key].append(entry)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {config_path}: config lists {key[:-1]} {entry!r} more than once\n"
    assert not (tmp_path / "run").exists()


def test_rate_curve_duplicate_prediction_cell_exits_2(tmp_path, capsys):
    first = _prediction_file(tmp_path / "a.jsonl", "m_post_process", ["d1"], "cannot log in")
    second = _prediction_file(tmp_path / "b.jsonl", "m_post_process", ["d1"])
    out = tmp_path / "rates.csv"
    code = main(["rate-curve", "--predictions", first, second, "--perspective", "customer", "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {second}: duplicate prediction set for cell (m_post_process, size=0, seed=0), first in {first}\n"
    )
    assert not out.exists()


def test_rate_curve_pools_the_seeds_of_a_size(tmp_path):
    """A size's rate is the share of all its files' candidates that the prefix rule fired on
    (1 of 4 here), not the mean of each seed's share ((1/1 + 0/3) / 2 = 0.5)."""
    fired = _prediction_file(tmp_path / "a.jsonl", "m_post_process", ["d1"], "cannot log in")
    kept = _prediction_file(tmp_path / "b.jsonl", "m_post_process", ["d1", "d2", "d3"], seed=1)
    out = tmp_path / "rates.csv"
    assert main(["rate-curve", "--predictions", fired, kept, "--perspective", "customer", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "size,rate\n0,0.25\n"


@pytest.mark.parametrize("error", ["no-candidates", "mixed-methods"])
def test_rate_curve_data_errors_name_their_files(tmp_path, capsys, error):
    """A size with no candidate names every file of that size, and a mix of methods names
    the first file of each method."""
    blank = [_prediction_file(tmp_path / f"blank{seed}.jsonl", "m_post_process", ["d1"], " ", seed=seed)
             for seed in (0, 1)]
    full = _prediction_file(tmp_path / "full.jsonl", "m_post_process", ["d1"], size=16)
    other = _prediction_file(tmp_path / "other.jsonl", "other", ["d1"], size=16, seed=1)
    out = tmp_path / "rates.csv"
    argv = ["rate-curve", "--perspective", "customer", "--output", str(out), "--predictions"]
    if error == "no-candidates":
        assert main([*argv, full, *blank]) == 2
        assert capsys.readouterr().err == f"error: no customer candidates at size 0 in {blank[0]}, {blank[1]}\n"
    else:
        assert main([*argv, *blank, full, other]) == 2
        assert capsys.readouterr().err == (
            f"error: prediction files mix methods: m_post_process in {blank[0]}, other in {other}\n"
        )
    assert not out.exists()


def test_rate_curve_rows_ascend_by_training_size(tmp_path):
    files = [_prediction_file(tmp_path / f"{size}.jsonl", "m_post_process", ["d1", "d2"][:n], text, size=size)
             for size, n, text in [(1024, 1, "The customer cannot log in"), (0, 1, "cannot log in"),
                                   (16, 2, "cannot log in")]]
    out = tmp_path / "rates.csv"
    assert main(["rate-curve", "--predictions", *files, "--perspective", "customer", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "size,rate\n0,1.0\n16,1.0\n1024,0.0\n"


@pytest.mark.parametrize("perspective, rate", [("customer", "0.3333333333333333"), ("agent", "0.6666666666666666"),
                                               ("full", "0.6")])
def test_rate_curve_reads_the_sides_of_its_perspective(tmp_path, perspective, rate):
    """A one-sided perspective counts the entries with that side; the full one counts every
    entry with a side, and it fired when the rule fired on either."""
    pred = tmp_path / "pred.jsonl"
    entries = [("d1", "cannot log in", "The agent resets it"), ("d2", None, "resets the password"),
               ("d3", "The customer wants a refund", None), ("d4", "Customer is upset", None),
               ("d5", None, "sends a label")]
    lines = [{"method": "m_post_process", "training_size": 0, "seed": 0}]
    lines += [{"dialog_id": did, "customer": customer, "agent": agent} for did, customer, agent in entries]
    pred.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "rates.csv"
    assert main(["rate-curve", "--predictions", str(pred), "--perspective", perspective, "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == f"size,rate\n0,{rate}\n"


def test_rate_curve_counts_no_blank_or_missing_side(tmp_path):
    pred = tmp_path / "pred.jsonl"
    lines = [{"method": "m_post_process", "training_size": 0, "seed": 0},
             {"dialog_id": "d1", "customer": "cannot log in", "agent": None},
             {"dialog_id": "d2", "customer": " \t", "agent": "The agent resets it"},
             {"dialog_id": "d3", "customer": None, "agent": None},
             {"dialog_id": "d4", "agent": "resets the password"}]
    pred.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    out = tmp_path / "rates.csv"
    assert main(["rate-curve", "--predictions", str(pred), "--perspective", "customer", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "size,rate\n0,1.0\n"


def test_rate_curve_of_a_method_that_does_not_post_process_is_zero(tmp_path):
    """Whether the prefix rule applies is read from the method name, not from the texts."""
    pred = _prediction_file(tmp_path / "pred.jsonl", "pegasus", ["d1", "d2"], "cannot log in")
    out = tmp_path / "rates.csv"
    assert main(["rate-curve", "--predictions", pred, "--perspective", "customer", "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "size,rate\n0,0.0\n"


def test_rate_curve_absent_prediction_file_exits_2_naming_it(tmp_path, capsys):
    present = _prediction_file(tmp_path / "a.jsonl", "m_post_process", ["d1"])
    absent = tmp_path / "absent.jsonl"
    out = tmp_path / "rates.csv"
    argv = ["rate-curve", "--predictions", present, str(absent), "--perspective", "customer", "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: file not found: {absent}\n"
    assert not out.exists()


def _customer_lead_corpus(path):
    # the crafted dialogs open with a 5-word "customer ..." or "agent ..." turn and only later
    # reach 8 words, so the lead's post-process share differs between --min-tokens 5 and 8
    crafted = [
        make_dialog(f"x{i}", [
            (SpeakerRole.CUSTOMER, "customer here, parcel still missing"),
            (SpeakerRole.AGENT, "agent here, checking that now"),
            (SpeakerRole.CUSTOMER, "it was due last friday and never came"),
            (SpeakerRole.AGENT, "the courier shows it left our depot on monday"),
        ])
        for i in range(3)
    ]
    corpus = synthetic_corpus(random.Random(16), 60)
    write_corpus(corpus._replace(dialogs=corpus.dialogs + crafted), path)


BUILTIN_METHODS = [
    f"{first}{second}{post}_base"
    for first in ("lead", "long")
    for second in ("", "_lead", "_long")
    for post in ("", "_post_process")
]


@pytest.mark.parametrize("min_tokens", ["1", "5", "8"])
def test_rate_curve_of_a_builtin_method_matches_summarize_output(tmp_path, min_tokens):
    """Each built-in method's targets, as prediction files under its name, give the
    share of `summarize`'s candidates of that method that the prefix rule fired on."""
    corpus = tmp_path / "corpus.jsonl"
    _customer_lead_corpus(corpus)
    summaries, pred, rates = tmp_path / "summaries.jsonl", tmp_path / "pred.jsonl", tmp_path / "rates.csv"

    def summarize(method, perspective):
        argv = ["summarize", "--corpus", str(corpus), "--method", method, "--perspective", perspective,
                "--min-tokens", min_tokens, "--output", str(summaries)]
        assert main(argv) == 0
        return {r["dialog_id"]: r for r in map(json.loads, summaries.read_text(encoding="utf-8").splitlines())}

    targets = {(heuristic, role): {did: r["text"] for did, r in summarize(f"{heuristic}_base", role).items()}
               for heuristic in ("lead", "long") for role in ("customer", "agent")}
    for method in BUILTIN_METHODS:
        heuristics = re.findall("lead|long", method)
        two_sided = len(heuristics) == 2
        for perspective in ["full"] if two_sided else ["customer", "agent"]:
            records = summarize(method, perspective)
            share = sum(r["post_processed"] for r in records.values()) / len(records)
            roles = ["customer", "agent"] if two_sided else [perspective]
            sides = [targets[heuristic, role] for heuristic, role in zip(heuristics, roles)]
            lines = [{"method": method, "training_size": 0, "seed": 0}]
            lines += [{"dialog_id": did, **{role: side[did] for role, side in zip(roles, sides)}}
                      for did in sorted(set.intersection(*map(set, sides)))]
            assert sorted(records) == [line["dialog_id"] for line in lines[1:]], (method, perspective)
            pred.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
            argv = ["rate-curve", "--predictions", str(pred), "--perspective", perspective, "--output", str(rates)]
            assert main(argv) == 0
            assert rates.read_text(encoding="utf-8") == f"size,rate\n0,{share!r}\n", (method, perspective)


def test_summarize_min_tokens_changes_the_lead_rate(tmp_path):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "summaries.jsonl"
    _customer_lead_corpus(corpus)
    shares = []
    for flags in ([], ["--min-tokens", "5"], ["--min-tokens", "8"]):
        argv = ["summarize", "--corpus", str(corpus), "--method", "lead_post_process_base",
                "--perspective", "customer", *flags, "--output", str(out)]
        assert main(argv) == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        shares.append(sum(r["post_processed"] for r in records) / len(records))
    assert shares[0] == shares[1] != shares[2]


def test_split_command_rejects_two_ratios(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(9), 5)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    code = main(["split", "--corpus", str(src), "--output", str(tmp_path / "o"), "--ratios", "0.5,0.5"])
    assert code == 1
    assert "three values" in capsys.readouterr().err


def test_split_command_rejects_ratio_outside_unit_interval(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(9), 10)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    code = main(["split", "--corpus", str(src), "--output", str(tmp_path / "o"), "--ratios", "1.5,-0.5,0"])
    assert code == 1
    assert "must each lie in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "ratios, complaint",
    [("0.5,0.5,0.5", "must sum to 1.0"), ("0.8,0.1,x", "comma-separated numbers"), ("nan,0.5,0.5", "[0, 1]")],
)
def test_split_command_checks_ratios_before_reading_the_corpus(tmp_path, capsys, ratios, complaint):
    missing = tmp_path / "absent.jsonl"  # a usage error, not a missing file (exit 2)
    code = main(["split", "--corpus", str(missing), "--output", str(tmp_path / "o"), "--ratios", ratios])
    assert code == 1
    assert complaint in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_split_command_rejects_split_file_row_without_value(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(9), 5)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    split_file = tmp_path / "split.csv"
    split_file.write_text("dialog_id,split\nd0\n", encoding="utf-8")
    code = main(["split", "--corpus", str(src), "--output", str(tmp_path / "o"), "--split-file", str(split_file)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {split_file}, line 2: split file row has 1 field(s), the header has 2\n"


def test_split_command_rejects_split_file_row_with_extra_field(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(9), 5)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    split_file = tmp_path / "split.csv"
    split_file.write_text("dialog_id,split\nd0,train\nd1,train,EXTRA\n", encoding="utf-8")
    out = tmp_path / "o"
    code = main(["split", "--corpus", str(src), "--output", str(out), "--split-file", str(split_file)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {split_file}, line 3: split file row has 3 field(s), the header has 2\n"
    assert not out.exists()


def test_ingest_non_string_gold_part_exits_2(tmp_path, capsys):
    record = {"id": "d1", "utterances": [{"role": "customer", "text": "hi"}], "gold": {"customer": 5, "agent": "x"}}
    src = tmp_path / "c.jsonl"
    src.write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = main(["ingest", "--format", "dialog-jsonl", "--input", str(src), "--output", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {src}, line 1: dialog 'd1': gold summary parts must be strings\n"


def test_score_split_flag_overrides_corpus(tmp_path):
    corpus = synthetic_corpus(random.Random(10), 10, with_gold=True)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    split_file = tmp_path / "split.csv"
    rows = ["dialog_id,split"]
    for pos, d in enumerate(corpus.dialogs):
        rows.append(f"{d.id},{'train' if pos < 8 else 'test'}")
    split_file.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = {
        "methods": ["lead_base"],
        "perspectives": ["customer"],
        "sizes": [0, 8],
        "n_seeds": 1,
        "corpus": str(corpus_path),
        "split": str(split_file),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "run"
    code = main(["score", "--config", str(config_path), "--output-dir", str(out_dir)])
    assert code == 0
    dump = (out_dir / "per_dialog_scores.csv").read_text(encoding="utf-8")
    scored_ids = {line.split(",")[0] for line in dump.splitlines()[1:]}
    assert scored_ids == {d.id for d in corpus.dialogs[8:]}


def test_score_config_paths_relative_to_config_file(tmp_path):
    corpus = synthetic_corpus(random.Random(8), 20, with_gold=True, with_split=True)
    nested = tmp_path / "cfg"
    nested.mkdir()
    write_corpus(corpus, nested / "corpus.jsonl")
    config = {
        "methods": ["lead_base"],
        "perspectives": ["customer"],
        "sizes": [0],
        "n_seeds": 1,
        "corpus": "corpus.jsonl",
    }
    config_path = nested / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["score", "--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 0


def test_rate_curve_command_predictions(tmp_path):
    lines_a = [
        '{"method": "lead_post_process", "training_size": 0, "seed": 0}',
        '{"dialog_id": "d1", "customer": "cannot log in", "agent": null}',
        '{"dialog_id": "d2", "customer": "The customer wants a refund", "agent": null}',
    ]
    lines_b = [
        '{"method": "lead_post_process", "training_size": 16, "seed": 0}',
        '{"dialog_id": "d1", "customer": "The customer cannot log in", "agent": null}',
        '{"dialog_id": "d2", "customer": "The customer wants a refund", "agent": null}',
    ]
    pa = tmp_path / "a.jsonl"
    pb = tmp_path / "b.jsonl"
    pa.write_text("\n".join(lines_a) + "\n", encoding="utf-8")
    pb.write_text("\n".join(lines_b) + "\n", encoding="utf-8")
    out = tmp_path / "rates.csv"
    code = main(
        ["rate-curve", "--predictions", str(pa), str(pb), "--perspective", "customer", "--output", str(out)]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == "size,rate\n0,0.5\n16,0.0\n"
