"""Dialog corpus model: ingestion, thread reconstruction, splits.

The canonical on-disk format is JSONL, one dialog object per line:

    {"id": str,
     "utterances": [{"role": "customer"|"agent", "text": str}, ...],
     "gold": {"customer": str, "agent": str},        # optional
     "split": "train"|"val"|"test"}                  # optional

Utterance index is implicit by position. All downstream modules consume only
this format; the Kaggle tweet CSV adapter converts external data once.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import defaultdict
from contextlib import contextmanager
from enum import Enum
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NamedTuple, Sequence

from .rng import make_rng


class CorpusError(ValueError):
    """Input data violates a corpus contract (duplicate ids, bad fields, ...)."""


class ParseError(CorpusError):
    """A malformed input line, or file when `line` is None; carries the 1-based line number
    and, once known, the file."""

    def __init__(self, line: int | None, message: str, path: str | Path | None = None):
        text = message if line is None else f"line {line}: {message}"
        super().__init__(text if path is None else f"{path}{':' if line is None else ','} {text}")
        self.line = line
        self.detail = message


@contextmanager
def _naming_file(path: str | Path) -> Iterator[None]:
    """Re-raise errors from reading `path` as "<path>, line N: ..." or "<path>: ..."."""
    try:
        yield
    except ParseError as exc:
        raise type(exc)(exc.line, exc.detail, path) from exc
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


_PIECE = 65_536  # the most that one read asks for: a line longer than this, or lone CRs, are read on in pieces


class LineSource:
    """The lines of a binary file or pipe as text mode with encoding "utf-8-sig" and `newline`
    "" or None reads them, each decoded alone as it is read: a byte that is not UTF-8 is a
    ParseError naming its line and input offset on the first pass, a pipe's too. Each
    iteration goes on where the last one stopped. Reads are of at most _PIECE bytes, or twice
    the last while one line goes on, so a file whose lines end in lone CRs is not held whole."""

    def __init__(self, fh: BinaryIO, newline: str | None):
        first = fh.readline(_PIECE)
        self._line, self._offset = 0, 3 if first.startswith(b"\xef\xbb\xbf") else 0  # lines and bytes read
        self._fh, self._universal = fh, newline is None
        # lines read from `fh` and not yet decoded, last first; a bytearray is the start of unread lines
        self._held = [bytearray(first[self._offset:])]

    def __iter__(self) -> Iterator[str]:
        held, readline, universal, piece = self._held, self._fh.readline, self._universal, _PIECE
        while True:
            if held:
                raw = held.pop()
                if type(raw) is bytearray:
                    raw = self._read_on(bytes(raw))
            else:
                raw = readline(piece)
                # cut short of its end, or more than one line: a CR before the line's own end ends a line too
                if len(raw) == piece and raw[-1] != 10 or 13 in raw and 13 in raw.rstrip(b"\n")[:-1]:
                    raw = self._read_on(raw)
            if not raw:
                return
            self._line += 1
            try:
                text = raw.decode()
            except UnicodeDecodeError as error:
                byte, at = raw[error.start], self._offset + error.start
                raise ParseError(self._line, f"'utf-8' codec can't decode byte 0x{byte:02x} at offset {at}: {error.reason}") from None
            self._offset += len(raw)
            yield text.rstrip("\r\n") + "\n" if universal and 13 in raw else text  # its only end reads as LF

    def _read_on(self, raw: bytes) -> bytes:
        """The first line of `raw`, the start of the unread input, read on in pieces to a line's end:
        an LF, a CR before the bytes' last, or the input's end. The whole lines after it are held,
        and the bytes after the last line end as a bytearray. Nothing is held when this is called."""
        size = _PIECE  # `end` is 0 until `raw` holds a line end, and then the index after the last
        while not (end := max(raw.rfind(b"\n"), raw.rfind(b"\r", 0, -1)) + 1) and (piece := self._fh.readline(size)):
            raw += piece
            size *= 2
        lines = raw.splitlines(True) or [b""]
        if 0 < end < len(raw):
            lines[-1] = bytearray(lines[-1])  # the start of a line not read to its end
        self._held += lines[:0:-1]
        return lines[0]

    def take(self, block: bytes, lines: int) -> bool:
        """Read past `block`, `lines` whole lines ending in LF with no CR, if no line is held and the
        input goes on with it, and say so; else hold the bytes read as the start of unread lines."""
        got = None if self._held else self._fh.read(len(block))
        if got == block:
            self._line += lines
            self._offset += len(block)
        elif got:
            self._held.append(bytearray(got))
        return got == block


@contextmanager
def read_lines(path: str | Path, newline: str | None = None) -> Iterator[LineSource]:
    """The LineSource of the file or pipe at `path`; every error raised while it is open names it."""
    with open(path, "rb") as fh, _naming_file(path):
        yield LineSource(fh, newline)


def csv_rows(path: str | Path, what: str, columns: Sequence[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line, values) for each row after the header of the CSV (RFC 4180) at `path`
    that is not blank, `values` being the row's fields under `columns` (two or more), in
    that order: `csv_header`, then `csv_body`, over `read_lines`. Errors are ParseErrors
    naming the file, with messages that start with `what`, each as csv.reader names it."""
    with read_lines(path, newline="") as lines:
        header, pick, lineno = csv_header(lines, what, columns)
        yield from csv_body(lines, what, len(header), pick, lineno)


def csv_header(fh: Iterable[str], what: str, columns: Sequence[str]) -> tuple[list[str], itemgetter, int]:
    """Read the header of a CSV from the lines `fh` with csv.reader, no further than its last
    line, and return it with the itemgetter that picks `columns` from a row of its width and
    the number of lines it took. It must name each of `columns` once."""
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    if header is None:
        raise ParseError(1, f"{what} has no header row")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ParseError(1, f"{what} missing column(s): {', '.join(missing)}")
    for column in columns:
        if header.count(column) > 1:
            raise ParseError(1, f"{what} header names column {column!r} more than once")
    return header, itemgetter(*map(header.index, columns)), reader.line_num


def csv_body(lines: Iterable[str], what: str, width: int, pick: itemgetter, lineno: int) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line, pick(fields)) for each row of the CSV `lines` that is not blank, the first
    line being line `lineno` + 1 of its file; every row must have `width` fields. No line is
    read past the row it ends, so a caller may stop after any row and go on at the next line.

    A line that holds no quote, NUL or CR before its line end, is no longer than csv's field
    limit and splits on its commas into `width` fields is a row of those fields, as csv.reader
    would parse it. Each other line starts a row that one csv.reader reads, with any further
    lines of it from `lines`, at the same line numbers; the line after that row is split.
    """
    lines, limit, held = iter(lines), csv.field_size_limit(), []
    reader = csv.reader(iter(lambda: held.pop() if held else next(lines, None), None))
    try:
        while True:
            for line in lines:
                row = line.rstrip("\r\n")
                if '"' in row or "\r" in row or "\0" in row or len(line) > limit:
                    break
                fields = row.split(",")
                if len(fields) != width:
                    break
                lineno += 1
                yield lineno, pick(fields)
            else:
                return
            held.append(line)
            lineno -= reader.line_num
            fields = next(reader)
            lineno += reader.line_num
            if len(fields) == width:
                yield lineno, pick(fields)
            elif fields:
                raise ParseError(lineno, f"{what} row has {len(fields)} field(s), the header has {width}")
    except csv.Error as exc:
        raise ParseError(lineno + reader.line_num, str(exc)) from None


def decode_json(text: str, line: int | None = None):
    """json.loads(text); text that is not JSON is a ParseError at `line`, and so are an
    integer of more digits than int() converts, which json raises as a plain ValueError,
    and nesting deeper than the recursion limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(line, f"invalid JSON ({exc.msg})") from exc
    except ValueError as exc:
        raise ParseError(line, f"invalid JSON ({exc})") from exc
    except RecursionError:
        raise ParseError(line, "invalid JSON (nested too deeply)") from None


# decodes one JSON value at the start of a string and returns it with the index after it
_raw_decode = json.JSONDecoder().raw_decode


def json_objects(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line, object) for each line of JSONL `lines` that is not blank; a line that is
    not JSON, not a JSON object, or escapes a lone surrogate is a ParseError.

    A line that is one object followed by nothing or a newline is taken from `_raw_decode`;
    any other line goes through `decode_json`, which words every error."""
    for lineno, raw in enumerate(lines, start=1):
        try:
            record, end = _raw_decode(raw)
            whole = isinstance(record, dict) and raw[end:] in ("\n", "")
        except (ValueError, RecursionError):
            whole = False
        if not whole:
            if not raw.strip():
                continue
            record = decode_json(raw, lineno)
            if not isinstance(record, dict):
                raise ParseError(lineno, "expected a JSON object")
        if "\\u" in raw:
            reject_lone_surrogates(raw, lineno)
        yield lineno, record


_JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')
_SURROGATE = re.compile(r"[\ud800-\udfff]")


def reject_lone_surrogates(text: str, first_line: int = 1) -> None:
    """Raise a ParseError at the line of `text` (valid JSON from `first_line` on; no string spans
    lines) where a string escapes half a surrogate pair alone ("\\ud800"), which UTF-8 cannot hold."""
    for lineno, line in enumerate(text.split("\n"), start=first_line):
        for literal in _JSON_STRING.findall(line):
            found = _SURROGATE.search(json.loads(literal))
            if found:
                raise ParseError(lineno, f"JSON string escapes a lone surrogate (\\u{ord(found.group()):04x})")


class SpeakerRole(str, Enum):
    CUSTOMER = "customer"
    AGENT = "agent"


class Split(str, Enum):
    TRAIN = "train"
    VALIDATION = "val"
    TEST = "test"


# role and split values as read from and written to JSONL; SpeakerRole and Split are
# str subclasses, so the JSON encoder writes a member as its value
_ROLES = {role.value: role for role in SpeakerRole}
_SPLITS = {split.value: split for split in Split}


class Utterance(NamedTuple):
    """One speaker turn; its position is its index in Dialog.utterances."""

    role: SpeakerRole
    text: str


class Dialog(NamedTuple):
    """A dialog id and its utterances, at least one and none blank; its builders check that."""

    id: str
    utterances: tuple[Utterance, ...]


# builds a NamedTuple of checked values in C, without the interpreted __new__ its class generates
_new_tuple = tuple.__new__


def make_dialog(dialog_id: str, turns: Sequence[tuple[SpeakerRole, str]]) -> Dialog:
    """Build a Dialog from (role, text) pairs: at least one, and none with a blank text."""
    utterances = tuple([_new_tuple(Utterance, (role, text)) for role, text in turns])
    if not utterances:
        raise CorpusError(f"dialog {dialog_id!r} has no utterances")
    if not all([text.strip() for _, text in utterances]):
        raise CorpusError("utterance text must contain a non-whitespace character")
    return _new_tuple(Dialog, (dialog_id, utterances))


class GoldSummary(NamedTuple):
    """Human-written abstractive reference with one part per perspective; its dialog id
    is its key in Corpus.gold."""

    customer_part: str
    agent_part: str


class Corpus(NamedTuple):
    """Dialogs in corpus order; gold summaries and split by dialog id, when known. Immutable."""

    dialogs: list[Dialog]
    gold: dict[str, GoldSummary] | None = None
    split: dict[str, Split] | None = None

    def validate(self) -> None:
        """A split assignment, if any, must cover every dialog; parsing checks the rest."""
        if self.split is not None:
            missing = [d.id for d in self.dialogs if d.id not in self.split]
            if missing:
                raise CorpusError(f"split assignment missing for {len(missing)} dialog(s), first: {missing[0]!r}")

    def dialog_ids(self, split: Split | None = None) -> list[str]:
        """Dialog ids in corpus order, optionally filtered to one split."""
        if split is None:
            return [d.id for d in self.dialogs]
        if self.split is None:
            raise CorpusError("corpus has no split assignment")
        return [d.id for d in self.dialogs if self.split[d.id] == split]

    def by_id(self) -> dict[str, Dialog]:
        return {d.id: d for d in self.dialogs}


# --- canonical JSONL ---------------------------------------------------------


# one compact, UTF-8-preserving JSONL encoder; it writes every str (enum members too) by encode_basestring
encode_json_line = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

_UTTERANCE_HEADS = {role: '{"role":' + encode_basestring(role) + ',"text":' for role in SpeakerRole}
_SPLIT_TAILS = {split: ',"split":' + encode_basestring(split) for split in Split}


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write `corpus` as canonical JSONL, one dialog per line in corpus order: the line is
    `encode_json_line` of {"id", "utterances"[, "gold"][, "split"]}, built from pre-encoded
    pieces, so every id, text and gold part must be a str, every role a SpeakerRole."""
    gold, split = corpus.gold or {}, corpus.split or {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for did, utterances in corpus.dialogs:
            line = '{"id":' + encode_basestring(did) + ',"utterances":[' + "},".join(
                [_UTTERANCE_HEADS[role] + encode_basestring(text) for role, text in utterances]
            ) + "}]"
            summary = gold.get(did)
            if summary is not None:
                line += (',"gold":{"customer":' + encode_basestring(summary.customer_part)
                         + ',"agent":' + encode_basestring(summary.agent_part) + "}")
            if did in split:
                line += _SPLIT_TAILS[split[did]]
            fh.write(line + "}\n")


def parse_dialog_corpus(lines: Iterable[str]) -> Corpus:
    """Parse canonical JSONL into a validated Corpus, preserving input order."""
    dialogs: list[Dialog] = []
    gold: dict[str, GoldSummary] = {}
    split: dict[str, Split] = {}
    seen: set[str] = set()
    for lineno, record in json_objects(lines):
        try:
            did = record["id"]
            raw_utts = record["utterances"]
        except KeyError as exc:
            raise ParseError(lineno, f"record missing required field {exc.args[0]!r}") from exc
        if not isinstance(did, str) or not did:
            raise ParseError(lineno, "dialog id must be a non-empty string")
        if did in seen:
            raise ParseError(lineno, f"duplicate dialog id {did!r}")
        seen.add(did)
        if not isinstance(raw_utts, list) or not raw_utts:
            raise ParseError(lineno, f"dialog {did!r} must have a non-empty utterance list")
        utts = []
        for pos, item in enumerate(raw_utts):
            try:
                role = _ROLES[item["role"]]
                text = item["text"]
            except (KeyError, TypeError) as exc:
                raise ParseError(lineno, f"dialog {did!r}: bad utterance at position {pos}") from exc
            if not isinstance(text, str) or not text.strip():
                raise ParseError(lineno, f"dialog {did!r}: empty utterance text at position {pos}")
            utts.append(_new_tuple(Utterance, (role, text)))
        dialogs.append(_new_tuple(Dialog, (did, tuple(utts))))
        if "gold" in record and record["gold"] is not None:
            g = record["gold"]
            try:
                parts = g["customer"], g["agent"]
            except (KeyError, TypeError) as exc:
                raise ParseError(lineno, f"dialog {did!r}: bad gold summary object") from exc
            if not all(isinstance(part, str) for part in parts):
                raise ParseError(lineno, f"dialog {did!r}: gold summary parts must be strings")
            if not all(part.strip() for part in parts):
                raise ParseError(lineno, f"gold summary for {did!r} must have non-empty customer and agent parts")
            gold[did] = GoldSummary(*parts)
        if "split" in record and record["split"] is not None:
            try:
                split[did] = _SPLITS[record["split"]]
            except (KeyError, TypeError) as exc:
                raise ParseError(lineno, f"dialog {did!r}: unknown split {record['split']!r}") from exc
    corpus = Corpus(dialogs, gold=gold or None, split=split or None)
    corpus.validate()
    return corpus


def read_corpus(path: str | Path) -> Corpus:
    with read_lines(path) as lines:
        return parse_dialog_corpus(lines)


# --- tweet thread reconstruction ---------------------------------------------

TWEET_CSV_COLUMNS = (
    "tweet_id",
    "author_id",
    "inbound",
    "created_at",
    "text",
    "response_tweet_id",
    "in_response_to_tweet_id",
)

_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")


def clean_tweet_text(text: str) -> str:
    """Anonymize mentions/URLs and collapse whitespace runs to single spaces."""
    if "http" in text or "www." in text:
        text = _URL_RE.sub("http://url", text)
    if "@" in text:
        text = _MENTION_RE.sub("@user", text)
    # U+0020 is the one printable whitespace character, so such a text is already collapsed
    if text.isprintable() and "  " not in text and not text.startswith(" ") and not text.endswith(" "):
        return text
    return " ".join(text.split())


class ThreadReport(NamedTuple):
    """Counters surfaced as warnings; reconstruction never hard-fails on data."""

    cyclic_chains_skipped: int = 0
    gap_truncations: int = 0
    dropped_chains: int = 0  # <2 utterances after merging, or only one role


class Tweet(NamedTuple):
    """One decoded tweet; its id is not stored, since every holder keys it by id."""

    role: SpeakerRole
    text: str
    parent: str | None


def reconstruct_threads(pairs: Iterable[tuple[str, Tweet]]) -> tuple[list[Dialog], ThreadReport]:
    """Rebuild dialogs from (tweet_id, Tweet) pairs, as `read_tweet_csv` yields them.

    Reply chains are followed from root tweets to leaves; consecutive tweets by
    the same role are merged into one utterance. A chain survives only with at
    least two utterances and both roles present. Dialog id is the root tweet id,
    so a branching root yields exactly one dialog: its longest chain, ties
    broken by child order in the input. A repeated id keeps its last tweet;
    `read_tweet_csv` rejects repeats.
    """
    cyclic = gaps = dropped = 0
    tweets = dict(pairs)
    children: dict[str, list[str]] = defaultdict(list)

    roots = []
    for tid, (_, _, parent) in tweets.items():
        if parent is None:
            roots.append(tid)
        elif parent in tweets:
            children[parent].append(tid)
        else:
            gaps += 1
            roots.append(tid)

    dialogs: list[Dialog] = []
    reached = 0
    for root in roots:
        # walk down level by level; each level lists its tweets in depth-first order (the
        # first child in input order first), so the first tweet of the last level is the
        # first deepest leaf. Every tweet below a root has one parent and reaches the root
        # through it, so the leaf's parents spell its chain.
        level = [root]
        while True:
            reached += len(level)
            if len(level) == 1:
                below = children.get(level[0])
            else:
                below = [kid for tid in level if tid in children for kid in children[tid]]
            if not below:
                break
            level = below
        tid, path = level[0], []
        while True:
            tweet = tweets[tid]
            path.append(tweet)
            if tid == root:
                break
            tid = tweet.parent
        turns: list[tuple[SpeakerRole, list[str]]] = []  # the chain's same-role runs, joined once
        for role, text, _ in reversed(path):
            if turns and turns[-1][0] == role:
                turns[-1][1].append(text)
            else:
                turns.append((role, [text]))
        # adjacent turns differ in role, so two turns hold both roles
        if len(turns) < 2:
            dropped += 1
        else:
            dialogs.append(make_dialog(root, [(role, " ".join(texts)) for role, texts in turns]))

    # tweets unreachable from any root sit on reply cycles or lead into one; walk up from
    # each tweet, and count a cycle where a walk meets a tweet it reached itself
    if reached < len(tweets):
        walked = dict.fromkeys(roots)  # tweet -> the tweet whose walk reached it first
        for start in tweets:
            tid = start
            while tid not in walked:
                walked[tid] = start
                tid = tweets[tid].parent
            cyclic += walked[tid] == start

    return dialogs, ThreadReport(cyclic, gaps, dropped)


_INBOUND_TRUE = frozenset({"true", "1", "yes"})


def read_tweet_csv(path: str | Path) -> Iterator[tuple[str, Tweet]]:
    """Yield (tweet_id, Tweet) pairs from a Kaggle-schema CSV (RFC 4180, UTF-8).

    Ids are stripped, a blank reply-to id is None, text goes through `clean_tweet_text`, and
    `inbound` of true, 1 or yes (any case, stripped) marks the customer. Blank rows and
    tweets whose id or cleaned text is blank are skipped. A repeated tweet_id is an error,
    and so is anything `csv_rows` rejects.
    """
    customer, agent = SpeakerRole.CUSTOMER, SpeakerRole.AGENT
    first_lines: dict[str, int] = {}
    with _naming_file(path):
        for line, (tid, _, inbound, _, text, _, parent) in csv_rows(path, "tweet CSV", TWEET_CSV_COLUMNS):
            tid = tid.strip()
            if tid and first_lines.setdefault(tid, line) != line:
                raise ParseError(line, f"duplicate tweet_id {tid!r} (first on line {first_lines[tid]})")
            text = clean_tweet_text(text)
            if tid and text:
                role = customer if inbound.strip().lower() in _INBOUND_TRUE else agent
                yield tid, _new_tuple(Tweet, (role, text, parent.strip() or None))


# --- splitting ---------------------------------------------------------------


DEFAULT_SPLIT_RATIOS = (0.8, 0.1, 0.1)


def check_ratios(ratios: Sequence[float]) -> None:
    """The rule for train/val/test split ratios, in Python and on the command line alike."""
    if len(ratios) != 3:
        raise CorpusError("expected exactly three values (train,val,test)")
    if not all(0.0 <= ratio <= 1.0 for ratio in ratios):
        raise CorpusError("ratios must each lie in [0, 1]")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise CorpusError("ratios must sum to 1.0")


def split_corpus(
    corpus: Corpus,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
) -> Corpus:
    """Assign train/val/test by seeded shuffle and floor arithmetic on ratios."""
    check_ratios(ratios)
    n = len(corpus.dialogs)
    if n < 3:
        raise CorpusError(f"need at least 3 dialogs to split, got {n}")
    ids = [d.id for d in corpus.dialogs]
    shuffled = [ids[i] for i in make_rng(seed).permutation(n)]
    n_train = math.floor(ratios[0] * n)
    n_val = math.floor(ratios[1] * n)
    splits = [Split.TRAIN] * n_train + [Split.VALIDATION] * n_val + [Split.TEST] * (n - n_train - n_val)
    return with_split(corpus, dict(zip(shuffled, splits)))


def with_split(corpus: Corpus, assignment: dict[str, Split]) -> Corpus:
    """Return a corpus honoring an externally supplied split assignment, which must name
    every dialog of `corpus` and no other."""
    ids = {d.id for d in corpus.dialogs}
    for did in assignment:
        if did not in ids:
            raise CorpusError(f"split assignment references unknown dialog id {did!r}")
    out = corpus._replace(split=dict(assignment))
    out.validate()
    return out


def with_split_file(corpus: Corpus, path: str | Path) -> Corpus:
    """`corpus` with the split file at `path` applied; every error names the file."""
    assignment = load_split_csv(path)
    with _naming_file(path):
        return with_split(corpus, assignment)


def load_split_csv(path: str | Path) -> dict[str, Split]:
    """Read a split file: CSV with columns dialog_id, split, read through `csv_rows`."""
    assignment: dict[str, Split] = {}
    with _naming_file(path):
        for line, (did, value) in csv_rows(path, "split file", ("dialog_id", "split")):
            did = did.strip()
            try:
                split = Split(value.strip())
            except ValueError as exc:
                raise ParseError(line, f"unknown split value {value!r}") from exc
            if did in assignment:
                raise ParseError(line, f"duplicate split assignment for dialog {did!r}")
            assignment[did] = split
    return assignment
