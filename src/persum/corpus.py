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
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    """Re-raise errors from reading `path` as "<path>, line N: ..." or "<path>: ...".

    A byte that is not UTF-8 is named by the line and file offset `_undecodable_byte` finds.
    """
    try:
        yield
    except ParseError as exc:
        raise type(exc)(exc.line, exc.detail, path) from exc
    except UnicodeDecodeError as exc:
        raise _undecodable_byte(path) or CorpusError(f"{path}: {exc}") from exc
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc


def _undecodable_byte(path: str | Path) -> ParseError | None:
    """The first byte of the file at `path` that is not UTF-8, as a ParseError naming its
    line and file offset (the decoder that failed knew only its place in a block it read
    ahead), or None when every byte is. A line ends at LF, CR LF or a lone CR, as in text mode."""
    offset = line = 0
    with open(path, "rb") as fh:
        for raw in fh:  # LF is no byte of a multi-byte character, so each line decodes alone
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as error:
                line += 1 + raw.count(b"\r", 0, error.start) - raw.count(b"\r\n", 0, error.start)
                at, byte = offset + error.start, raw[error.start]
                return ParseError(line, f"'utf-8' codec can't decode byte 0x{byte:02x} at offset {at}: {error.reason}", path)
            line += 1 + raw.count(b"\r") - raw.count(b"\r\n")
            offset += len(raw)
    return None


def csv_rows(path: str | Path, what: str, columns: Sequence[str]) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Yield (line, values) for each row after the header of the CSV (RFC 4180, UTF-8, a
    leading byte-order mark skipped) at `path` that is not blank, `values` being the row's
    fields under `columns` (two or more), in that order.

    The header must name each of `columns` once, and every row must have as many fields as
    the header. Errors are ParseErrors whose messages start with `what`; the caller names
    the file with `_naming_file`.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(1, f"{what} has no header row")
            missing = [c for c in columns if c not in header]
            if missing:
                raise ParseError(1, f"{what} missing column(s): {', '.join(missing)}")
            for column in columns:
                if header.count(column) > 1:
                    raise ParseError(1, f"{what} header names column {column!r} more than once")
            pick = itemgetter(*map(header.index, columns))
            width = len(header)
            for fields in reader:
                if len(fields) != width:
                    if not fields:
                        continue
                    raise ParseError(reader.line_num, f"{what} row has {len(fields)} field(s), the header has {width}")
                yield reader.line_num, pick(fields)
        except csv.Error as exc:
            raise ParseError(reader.line_num, str(exc)) from None


def json_objects(lines: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (line, object) for each line of JSONL `lines` that is not blank; a line that is
    not JSON, not a JSON object, or escapes a lone surrogate is a ParseError."""
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(lineno, f"invalid JSON ({exc.msg})") from exc
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


class _UtteranceFields(NamedTuple):
    role: SpeakerRole
    text: str
    token_count: int


class Utterance(_UtteranceFields):
    """One speaker turn; token_count is computed from text on construction.

    A NamedTuple: immutable, and equal to the plain tuple (role, text, token_count).
    Its position is its index in Dialog.utterances.
    """

    __slots__ = ()

    def __new__(cls, role: SpeakerRole, text: str) -> Utterance:
        token_count = len(text.split())
        if not token_count:
            raise CorpusError("utterance text must contain a non-whitespace character")
        return tuple.__new__(cls, (role, text, token_count))

    def __getnewargs__(self) -> tuple[SpeakerRole, str]:  # copy and pickle call __new__
        return self[:2]

    def _replace(self, **changes) -> Utterance:  # token_count follows the new text
        return Utterance(**{"role": self.role, "text": self.text, **changes})


class Dialog(NamedTuple):
    """A dialog id and its utterances, at least one; make_dialog checks that."""

    id: str
    utterances: tuple[Utterance, ...]


def make_dialog(dialog_id: str, turns: Sequence[tuple[SpeakerRole, str]]) -> Dialog:
    """Build a Dialog from (role, text) pairs, of which there must be at least one."""
    utterances = tuple(Utterance(role, text) for role, text in turns)
    if not utterances:
        raise CorpusError(f"dialog {dialog_id!r} has no utterances")
    return Dialog(dialog_id, utterances)


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
        ids = [d.id for d in self.dialogs]
        id_set = set(ids)
        if len(ids) != len(id_set):
            seen: set[str] = set()
            for did in ids:
                if did in seen:
                    raise CorpusError(f"duplicate dialog id {did!r}")
                seen.add(did)
        if self.gold is not None:
            for did in self.gold:
                if did not in id_set:
                    raise CorpusError(f"gold summary references unknown dialog id {did!r}")
        if self.split is not None:
            for did in self.split:
                if did not in id_set:
                    raise CorpusError(f"split assignment references unknown dialog id {did!r}")
            missing = [i for i in ids if i not in self.split]
            if missing:
                raise CorpusError(
                    f"split assignment missing for {len(missing)} dialog(s), first: {missing[0]!r}"
                )

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


# one compact, UTF-8-preserving encoder for every JSONL line persum writes
encode_json_line = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write `corpus` as canonical JSONL, one dialog per line in corpus order."""
    gold = corpus.gold or {}
    split = corpus.split or {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for dialog in corpus.dialogs:
            record: dict = {
                "id": dialog.id,
                "utterances": [{"role": u.role, "text": u.text} for u in dialog.utterances],
            }
            summary = gold.get(dialog.id)
            if summary is not None:
                record["gold"] = {"customer": summary.customer_part, "agent": summary.agent_part}
            if dialog.id in split:
                record["split"] = split[dialog.id]
            fh.write(encode_json_line(record) + "\n")


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
            utts.append(Utterance(role, text))
        dialogs.append(Dialog(did, tuple(utts)))
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
    with open(path, "r", encoding="utf-8-sig") as fh, _naming_file(path):
        return parse_dialog_corpus(fh)


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
    for tid, tweet in tweets.items():
        parent = tweet.parent
        if parent is None:
            roots.append(tid)
        elif parent in tweets:
            children[parent].append(tid)
        else:
            gaps += 1
            roots.append(tid)

    visited: set[str] = set()
    dialogs: list[Dialog] = []
    for root in roots:
        # iterative DFS to the first deepest leaf; the first child in input order is
        # explored first. Every tweet below a root has one parent and reaches the root
        # through it, so no path repeats a tweet and the leaf's parents spell its chain.
        leaf, leaf_depth = root, 0
        stack = [(root, 1)]
        while stack:
            node, depth = stack.pop()
            visited.add(node)
            kids = children.get(node)
            if kids:
                stack.extend([(kid, depth + 1) for kid in reversed(kids)])
            elif depth > leaf_depth:
                leaf, leaf_depth = node, depth
        path = [leaf]
        while path[-1] != root:
            path.append(tweets[path[-1]].parent)
        dialog = _chain_to_dialog(root, path[::-1], tweets)
        if dialog is None:
            dropped += 1
        else:
            dialogs.append(dialog)

    # tweets unreachable from any root sit on reply cycles; count components
    # (their number does not depend on which node each search starts from)
    remaining = set(tweets) - visited
    while remaining:
        frontier = [remaining.pop()]
        while frontier:
            cur = frontier.pop()
            for n in (tweets[cur].parent, *children.get(cur, ())):
                if n in remaining:
                    remaining.remove(n)
                    frontier.append(n)
        cyclic += 1

    return dialogs, ThreadReport(cyclic, gaps, dropped)


def _chain_to_dialog(root: str, path: list[str], tweets: dict[str, Tweet]) -> Dialog | None:
    merged: list[tuple[SpeakerRole, str]] = []
    for tid in path:
        tweet = tweets[tid]
        if merged and merged[-1][0] == tweet.role:
            merged[-1] = (tweet.role, merged[-1][1] + " " + tweet.text)
        else:
            merged.append((tweet.role, tweet.text))
    if len(merged) < 2 or len({role for role, _ in merged}) < 2:
        return None
    return make_dialog(root, merged)


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
                yield tid, Tweet(role, text, parent.strip() or None)


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
    assignment: dict[str, Split] = {}
    for pos, did in enumerate(shuffled):
        if pos < n_train:
            assignment[did] = Split.TRAIN
        elif pos < n_train + n_val:
            assignment[did] = Split.VALIDATION
        else:
            assignment[did] = Split.TEST
    return with_split(corpus, assignment)


def with_split(corpus: Corpus, assignment: dict[str, Split]) -> Corpus:
    """Return a corpus honoring an externally supplied split assignment."""
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
