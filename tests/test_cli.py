from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum import Split, read_corpus, write_corpus
from persum import cli
from persum.cli import main
from persum.experiment import RunScores
from util import synthetic_corpus, tweet_table

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
    ],
    ids=["blank-gold-part", "duplicate-id", "bad-role", "blank-text", "bad-split", "bad-json"],
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


def _reading(reader, path, scored_setup, out):
    """The command line that reads `path` as the input `reader` names and writes `out`; the
    other inputs it needs are scored_setup's corpus and config."""
    corpus_path, config_path = scored_setup
    return {
        "config": ["score", "--config", str(path), "--output-dir", str(out)],
        "split": ["split", "--corpus", str(corpus_path), "--split-file", str(path), "--output", str(out)],
        "tweet-csv": ["ingest", "--format", "kaggle-csv", "--input", str(path), "--output", str(out)],
        "corpus": ["ingest", "--format", "dialog-jsonl", "--input", str(path), "--output", str(out)],
        "predictions": ["score", "--config", str(config_path), "--predictions", str(path), "--output-dir", str(out)],
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
    byte-order mark and the bytes of multi-byte characters."""
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
    head = mark + (first_line + "café, naïve\r\n").encode()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(head + b"\xff\n")
    out = tmp_path / "out"
    assert main(_reading(reader, bad, scored_setup, out)) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}, line 3: 'utf-8' codec can't decode byte 0xff at offset {len(head)}: invalid start byte\n"
    )
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
    pegasus_config = tmp_path / "pegasus.json"
    pegasus_config.write_text(json.dumps(
        {"methods": ["pegasus"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1, "corpus": str(corpus_path)}
    ), encoding="utf-8")
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
        argv = {
            "config": ["score", "--config", str(src), "--output-dir", str(out)],
            "split": ["split", "--corpus", str(corpus_path), "--split-file", str(src), "--output", str(out)],
            "tweet-csv": ["ingest", "--format", "kaggle-csv", "--input", str(src), "--output", str(out)],
            "corpus": ["ingest", "--format", "dialog-jsonl", "--input", str(src), "--output", str(out)],
            "predictions": ["score", "--config", str(pegasus_config), "--predictions", str(src),
                            "--output-dir", str(out)],
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


# the bytes that CSV syntax turns on, and a field longer than csv's field limit
CSV_PIECES = ['"', ",", "\n", "x" * 140_000]
# the bytes that JSON syntax turns on, a null, a number that overflows a float, and NUL
JSON_PIECES = ['"', ",", ":", "{", "}", "[", "]", "\n", "null", "1e400", "\u0000", "\\ud800"]


def _edits(pieces):
    return st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "duplicate"]), st.sampled_from(pieces), st.integers(0, 999)),
        min_size=1,
        max_size=4,
    )


def _mutated(text, edits):
    """Insert a piece at a position, or delete or duplicate one occurrence of it."""
    for edit, piece, at in edits:
        starts = [match.start() for match in re.finditer(re.escape(piece), text)]
        if edit == "insert":
            at %= len(text) + 1
            text = text[:at] + piece + text[at:]
        elif starts:
            at = starts[at % len(starts)]
            text = text[:at] + (piece * 2 if edit == "duplicate" else "") + text[at + len(piece):]
    return text


def _quiet_main(argv):
    """main(argv) with stdout dropped; returns the exit code and stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stderr.getvalue()


@pytest.mark.parametrize("reader", ["tweet-csv", "split", "dump"])
@settings(max_examples=40, deadline=None)
@given(edits=_edits(CSV_PIECES))
def test_mutated_csv_input_exits_0_or_2_naming_the_file(tmp_path_factory, reader, edits):
    """A small valid input, mutated, makes the command succeed or fail with a message
    naming that input."""
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
    path.write_text(_mutated(text, edits), encoding="utf-8")
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


@pytest.mark.parametrize("reader", ["corpus", "predictions", "config"])
@settings(max_examples=40, deadline=None)
@given(edits=_edits(JSON_PIECES))
def test_mutated_jsonl_input_exits_0_or_2_naming_the_file(tmp_path_factory, reader, edits):
    """A small valid corpus, prediction file or config, mutated, makes the command succeed
    or fail with a message; a corpus or prediction file is named in it, except that a
    mutated prediction header may leave the configured cell without predictions."""
    tmp_path = tmp_path_factory.mktemp("fuzz")
    # five test dialogs: four edits that keep the JSON valid cannot take every prediction away
    corpus = synthetic_corpus(random.Random(9), 12, with_gold=True, with_split=True, train_fraction=0.2)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    config = {"methods": ["pegasus"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1,
              "corpus": str(corpus_path)}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    predictions = _prediction_file(tmp_path / "predictions.jsonl", "pegasus", corpus.dialog_ids(Split.TEST))
    text = {
        "corpus": _record("d1", gold={"customer": "hi", "agent": "x"}, split="test") + "\n"
        + _record("d2", split="train") + "\n",
        "predictions": Path(predictions).read_text(encoding="utf-8"),
        "config": json.dumps({**config, "predictions": [predictions]}),
    }[reader]
    path = tmp_path / "input.jsonl"
    path.write_text(_mutated(text, edits), encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "corpus": ["ingest", "--format", "dialog-jsonl", "--input", str(path), "--output", str(out)],
        "predictions": ["score", "--config", str(config_path), "--predictions", str(path), "--output-dir", str(out)],
        "config": ["score", "--config", str(path), "--output-dir", str(out)],
    }[reader]
    code, stderr = _quiet_main(argv)
    assert code in (0, 2)
    if code == 2 and reader != "config":
        error = stderr.splitlines()[-1]  # after any warnings
        if not error.startswith(f"error: {path}"):
            assert reader == "predictions" and error.startswith("error: missing prediction cells: "), stderr
            assert path.read_text(encoding="utf-8").split("\n")[0] != text.split("\n")[0], "header unchanged"


@pytest.mark.parametrize(
    "text, complaint",
    [('{"method": "pegasus", "training_size": 0, "seed": 0}\n{"dialog_id": "d1", "customer": 5}\n',
      ", line 2: field 'customer' must be a string or null"),
     ("", ": prediction file has no header line")],
    ids=["bad-field", "empty"],
)
def test_prediction_file_error_names_file(scored_setup, tmp_path, capsys, text, complaint):
    _, config_path = scored_setup
    pred = tmp_path / "pred.jsonl"
    pred.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    assert main(["score", "--config", str(config_path), "--predictions", str(pred), "--output-dir", str(out)]) == 2
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
@pytest.mark.parametrize("command", ["split", "score --split", "score config"])
def test_split_file_that_does_not_match_the_corpus_names_file(tmp_path, capsys, command, last_row, complaint):
    corpus = synthetic_corpus(random.Random(9), 4, with_gold=True)
    src = tmp_path / "c.jsonl"
    write_corpus(corpus, src)
    split_file = tmp_path / "split.csv"
    split_file.write_text("dialog_id,split\nd00000,train\nd00001,train\nd00002,test\n" + last_row, encoding="utf-8")
    config = {"methods": ["lead_base"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1}
    if command == "score config":
        config["split"] = "split.csv"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    argv = {
        "split": ["split", "--corpus", str(src), "--output", str(tmp_path / "o"), "--split-file", str(split_file)],
        "score --split": ["score", "--config", str(config_path), "--corpus", str(src), "--split", str(split_file),
                          "--output-dir", str(tmp_path / "run")],
        "score config": ["score", "--config", str(config_path), "--corpus", str(src), "--output-dir", str(tmp_path / "run")],
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
        ({"corpus": "c\u0000.jsonl"}, "config key 'corpus' must not contain a NUL character, got 'c\\x00.jsonl'"),
        ({"split": "\u0000"}, "config key 'split' must not contain a NUL character, got '\\x00'"),
        ({"predictions": ["p.jsonl", "q\u0000"]},
         "config key 'predictions' must not contain a NUL character, got 'q\\x00'"),
    ],
    ids=["n-seeds-zero", "n-seeds-string", "min-tokens-zero-lead", "min-tokens-negative-long", "no-perspective",
         "unknown-key", "not-an-object", "bad-json", "nul-in-corpus", "nul-in-split", "nul-in-predictions"],
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
    "command, option, value, complaint",
    [("subsets", "--sizes", "-3,4", "sizes must be non-negative, got '-3,4'"),
     ("subsets", "--sizes", "8,4,4", "sizes must be strictly increasing, got '8,4,4'"),
     ("subsets", "--seeds", "0", "expected an integer >= 1, got '0'"),
     ("rate-curve", "--sizes", "-1,5", "sizes must be non-negative, got '-1,5'"),
     ("rate-curve", "--sizes", "0,16,16", "sizes must be strictly increasing, got '0,16,16'")],
    ids=["subsets-negative", "subsets-repeated", "subsets-zero-seeds", "rate-curve-negative", "rate-curve-repeated"],
)
def test_bad_sizes_or_seeds_are_a_usage_error(helpdesk_path, tmp_path, capsys, command, option, value, complaint):
    out = tmp_path / "out"
    argv = {
        "subsets": ["subsets", "--corpus", str(helpdesk_path), "--output-dir", str(out)],
        "rate-curve": ["rate-curve", "--corpus", str(helpdesk_path), "--method", "lead_base",
                       "--perspective", "customer", "--output", str(out)],
    }[command]
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


@pytest.mark.parametrize("command", ["subsets", "rate-curve"])
def test_empty_sizes_is_a_usage_error(helpdesk_path, tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "subsets": ["subsets", "--corpus", str(helpdesk_path), "--output-dir", str(out)],
        "rate-curve": ["rate-curve", "--corpus", str(helpdesk_path), "--method", "lead_base",
                       "--perspective", "customer", "--output", str(out)],
    }[command]
    assert main([*argv, "--sizes", ""]) == 1
    assert capsys.readouterr().err.endswith("error: argument --sizes: expected at least one size, got ''\n")
    assert not out.exists()


def test_rate_curve_predictions_with_sizes_is_a_usage_error(tmp_path, capsys):
    pred = tmp_path / "a.jsonl"
    pred.write_text('{"method": "lead_post_process", "training_size": 0, "seed": 0}\n', encoding="utf-8")
    out = tmp_path / "rates.csv"
    argv = ["rate-curve", "--predictions", str(pred), "--sizes", "0,16", "--perspective", "customer",
            "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith("error: argument --sizes: not allowed with argument --predictions\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--corpus", "absent.jsonl"), ("--method", "lead_base")])
def test_rate_curve_predictions_with_corpus_or_method_is_a_usage_error(tmp_path, capsys, flag, value):
    pred = tmp_path / "a.jsonl"
    pred.write_text('{"method": "lead_post_process", "training_size": 0, "seed": 0}\n', encoding="utf-8")
    out = tmp_path / "rates.csv"
    argv = ["rate-curve", "--predictions", str(pred), flag, value, "--perspective", "customer",
            "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.endswith("error: --predictions is not allowed with --corpus or --method\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "source", [[], ["--corpus", "absent.jsonl"], ["--method", "lead_base"]], ids=["none", "corpus-only", "method-only"]
)
def test_rate_curve_without_a_source_is_a_usage_error(tmp_path, capsys, source):
    out = tmp_path / "rates.csv"
    assert main(["rate-curve", *source, "--perspective", "customer", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "persum rate-curve: error: give either --predictions or --corpus with --method\n"
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


@pytest.mark.parametrize("command", ["summarize", "rate-curve"])
@pytest.mark.parametrize(
    "method, perspective, message",
    [
        ("lead_base", "full", "names one heuristic; the full perspective needs a two-sided method such as "
                              "'lead_long_post_process_base'"),
        ("lead_long_base", "agent", "applies only to the full perspective"),
    ],
    ids=["one-sided-full", "two-sided-agent"],
)
def test_method_that_does_not_apply_writes_nothing(helpdesk_path, tmp_path, capsys, command, method, perspective,
                                                   message):
    out = tmp_path / "out"
    out.write_bytes(b"kept\n")
    argv = [command, "--corpus", str(helpdesk_path), "--method", method, "--perspective", perspective]
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
        ["score", "--config", str(config_path), "--report", "csv", "--output-dir", str(out_dir), "--subsets"]
    )
    assert code == 0
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["perspective", "rouge", "method", "0", "4"]
    for row in rows[1:]:
        assert row[3] == row[4], f"base method row varies across sizes: {row}"
    assert (out_dir / "per_dialog_scores.csv").exists()
    assert (out_dir / "subsets" / "0" / "4.txt").exists()


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
        "corpus": str(corpus_path),
    }
    config_path = tmp_path / "strict.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    code = main(
        ["score", "--config", str(config_path), "--output-dir", str(tmp_path / "s"), "--strict-missing"]
    )
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
    out_a = tmp_path / "default_prefix"
    out_b = tmp_path / "custom_prefix"
    assert main(["score", "--config", str(config_path), "--output-dir", str(out_a)]) == 0
    assert (
        main(
            [
                "score",
                "--config", str(config_path),
                "--output-dir", str(out_b),
                # one token longer than the default, so precision denominators move
                "--prefix-customer", "The customer says that ",
            ]
        )
        == 0
    )
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
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    reports = {}
    for fmt in ("md", "csv"):
        out_dir = tmp_path / f"run_{fmt}"
        score_args = ["score", "--config", str(config_path), "--predictions", *prediction_paths]
        assert main(score_args + ["--report", fmt, "--output-dir", str(out_dir)]) == 0
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
        first = next(iter(runs.runs.items()))
        write(RunScores(dict([first])), path)
        raise OSError(f"{path}: no space left on device")

    monkeypatch.setattr(cli, "write_per_dialog_csv", fail_after_the_first_run)
    out_dir = tmp_path / "run"
    code = main(["score", "--config", str(config_path), "--report", "md", "--output-dir", str(out_dir)])
    assert code == 2
    assert "no space left on device" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_score_prints_warnings_before_the_error_that_ends_it(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(5), 20, with_gold=True, with_split=True)
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    test_ids = corpus.dialog_ids(Split.TEST)
    lines = [json.dumps({"method": "pegasus", "training_size": 0, "seed": 0})]
    lines += [json.dumps({"dialog_id": did, "customer": None, "agent": None}) for did in test_ids]
    predictions = tmp_path / "pegasus.jsonl"
    predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {"methods": ["pegasus"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    code = main(
        ["score", "--config", str(config_path), "--corpus", str(corpus_path),
         "--predictions", str(predictions), "--output-dir", str(tmp_path / "run")]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"warning: pegasus/customer: no prediction for dialog {did} (size=0, seed=0)" for did in test_ids
    ] + ["warning: pegasus/customer: no dialog scored at size=0, seed=0", "error: no dialog scored in any cell"]


def _prediction_file(path, method, dialog_ids, text="The customer wants a refund"):
    lines = [json.dumps({"method": method, "training_size": 0, "seed": 0})]
    lines += [json.dumps({"dialog_id": did, "customer": text, "agent": None}) for did in dialog_ids]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_score_duplicate_prediction_cell_exits_2_after_its_warnings(tmp_path, capsys):
    corpus = synthetic_corpus(random.Random(5), 20, with_gold=True, with_split=True)
    test_ids = corpus.dialog_ids(Split.TEST)
    del corpus.gold[test_ids[0]]
    corpus_path = tmp_path / "corpus.jsonl"
    write_corpus(corpus, corpus_path)
    config = {"methods": ["pegasus"], "perspectives": ["customer"], "sizes": [0], "n_seeds": 1}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    first, second = (_prediction_file(tmp_path / name, "pegasus", test_ids) for name in ("a.jsonl", "b.jsonl"))

    code = main(
        ["score", "--config", str(config_path), "--corpus", str(corpus_path),
         "--predictions", first, second, "--output-dir", str(tmp_path / "run")]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: 1 test dialog(s) have no gold summary and are not scored",
        "error: duplicate prediction set for cell ('pegasus', 0, 0)",
    ]
    assert not (tmp_path / "run").exists()


def test_rate_curve_duplicate_prediction_cell_exits_2(tmp_path, capsys):
    first = _prediction_file(tmp_path / "a.jsonl", "m_post_process", ["d1"], "cannot log in")
    second = _prediction_file(tmp_path / "b.jsonl", "m_post_process", ["d1"])
    out = tmp_path / "rates.csv"
    code = main(["rate-curve", "--predictions", first, second, "--perspective", "customer", "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: duplicate prediction set for cell ('m_post_process', 0, 0)\n"
    assert not out.exists()


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
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = tmp_path / "run"
    code = main(
        ["score", "--config", str(config_path), "--split", str(split_file), "--output-dir", str(out_dir)]
    )
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


def test_rate_curve_command_builtin(helpdesk_path, tmp_path):
    out = tmp_path / "rates.csv"
    code = main(
        [
            "rate-curve",
            "--corpus", str(helpdesk_path),
            "--method", "lead_post_process_base",
            "--perspective", "customer",
            "--sizes", "0,16",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == "size,rate\n0,1.0\n16,1.0\n"


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
