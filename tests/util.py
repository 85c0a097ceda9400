"""Synthetic-data builders and naive reference implementations for tests.

The naive functions deliberately use plain scans, list.count, and a full
quadratic DP table so they stay independent of the library code they check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import re
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from persum import Corpus, Dialog, GoldSummary, ParseError, Perspective, SpeakerRole, Split, _porter, make_dialog
from persum.corpus import (
    TWEET_CSV_COLUMNS,
    ThreadReport,
    Tweet,
    decode_json,
    reject_lone_surrogates,
)
from persum.experiment import PER_DIALOG_COLUMNS, Runs
from persum.rouge import TokenizerConfig

VOCAB = ("alpha", "bravo", "charlie", "delta", "echo")

ROLES = (SpeakerRole.CUSTOMER, SpeakerRole.AGENT)


def random_text(rand: random.Random, min_tokens: int = 1, max_tokens: int = 14) -> str:
    n = rand.randint(min_tokens, max_tokens)
    return " ".join(rand.choice(VOCAB) for _ in range(n))


def random_dialog(rand: random.Random, dialog_id: str, max_utterances: int = 12) -> Dialog:
    n = rand.randint(1, max_utterances)
    turns = [(rand.choice(ROLES), random_text(rand)) for _ in range(n)]
    return make_dialog(dialog_id, turns)


def two_sided_dialog(rand: random.Random, dialog_id: str) -> Dialog:
    """A dialog guaranteed to have at least one turn per role."""
    turns = [
        (SpeakerRole.CUSTOMER, random_text(rand, min_tokens=5)),
        (SpeakerRole.AGENT, random_text(rand, min_tokens=5)),
    ]
    for _ in range(rand.randint(0, 8)):
        turns.append((rand.choice(ROLES), random_text(rand)))
    return make_dialog(dialog_id, turns)


def synthetic_corpus(
    rand: random.Random,
    n_dialogs: int,
    with_gold: bool = False,
    with_split: bool = False,
    train_fraction: float = 0.8,
) -> Corpus:
    dialogs = [two_sided_dialog(rand, f"d{i:05d}") for i in range(n_dialogs)]
    gold = None
    if with_gold:
        gold = {
            d.id: GoldSummary(random_text(rand, 4, 12), random_text(rand, 4, 12))
            for d in dialogs
        }
    split = None
    if with_split:
        split = {}
        n_train = int(train_fraction * n_dialogs)
        n_val = max((n_dialogs - n_train) // 2, 1)
        for pos, d in enumerate(dialogs):
            if pos < n_train:
                split[d.id] = Split.TRAIN
            elif pos < n_train + n_val:
                split[d.id] = Split.VALIDATION
            else:
                split[d.id] = Split.TEST
    return Corpus(dialogs, gold=gold, split=split)


# --- naive oracles -----------------------------------------------------------


def naive_lead(dialog: Dialog, role: SpeakerRole, min_tokens: int = 5):
    matching = [
        u for u in dialog.utterances if u.role == role and len(u.text.split()) >= min_tokens
    ]
    return matching[0] if matching else None


def naive_long(dialog: Dialog, role: SpeakerRole):
    best = None
    for u in dialog.utterances:
        if u.role != role:
            continue
        if best is None or len(u.text.split()) > len(best.text.split()):
            best = u
    return best


_OPENER_RE = re.compile(r"^(the\s+)?(customer|agent)\b", re.IGNORECASE)
_BASE_RE = re.compile(r"^(lead|long)(?:_(lead|long))?(_post_process)?_base$")
_POST_PROCESS_RE = re.compile(r"(?:^|_)post_process(?:_|$)")


def _naive_prefixed(text: str, role: SpeakerRole, prefixes) -> tuple[str, bool]:
    if _OPENER_RE.match(text):
        return text, False
    return (prefixes.customer if role == SpeakerRole.CUSTOMER else prefixes.agent) + text, True


def _naive_join(parts: list[tuple[SpeakerRole, str]], post: bool, prefixes):
    if not parts:
        return None
    if post:
        done = [_naive_prefixed(text, role, prefixes) for role, text in parts]
        return " ".join(text for text, _ in done), any(fired for _, fired in done)
    return " ".join(text for _, text in parts), False


def naive_builtin_candidate(dialog: Dialog, method: str, perspective: str, prefixes, min_tokens: int = 5):
    """(text, post_processed) of a built-in baseline, or None when a side finds nothing."""
    first, second, post = _BASE_RE.match(method).groups()
    if perspective == "full":
        plan = ((SpeakerRole.CUSTOMER, first), (SpeakerRole.AGENT, second))
    else:
        plan = ((SpeakerRole(perspective), first),)
    parts = []
    for role, heuristic in plan:
        utt = naive_lead(dialog, role, min_tokens) if heuristic == "lead" else naive_long(dialog, role)
        if utt is None:
            return None
        parts.append((role, utt.text))
    return _naive_join(parts, post is not None, prefixes)


def naive_external_candidate(customer: str | None, agent: str | None, method: str, perspective: str, prefixes):
    """(text, post_processed) of a prediction entry's parts, or None when every wanted part is blank."""
    wanted = ("customer", "agent") if perspective == "full" else (perspective,)
    parts = [
        (SpeakerRole(side), raw)
        for side, raw in (("customer", customer), ("agent", agent))
        if side in wanted and raw is not None and raw.strip()
    ]
    return _naive_join(parts, _POST_PROCESS_RE.search(method) is not None, prefixes)


def _prf(overlap: float, cand_total: int, ref_total: int) -> tuple[float, float, float]:
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def naive_ngram_prf(cand: list[str], ref: list[str], n: int) -> tuple[float, float, float]:
    cand_grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    overlap = 0
    for gram in set(cand_grams):
        overlap += min(cand_grams.count(gram), ref_grams.count(gram))
    return _prf(overlap, len(cand_grams), len(ref_grams))


def naive_lcs_prf(cand: list[str], ref: list[str]) -> tuple[float, float, float]:
    m, n = len(cand), len(ref)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if cand[i - 1] == ref[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return _prf(table[m][n], m, n)


def random_token_list(rand: random.Random, max_len: int = 12) -> list[str]:
    return [rand.choice(VOCAB) for _ in range(rand.randint(0, max_len))]


def naive_tokenize(text: str, config: TokenizerConfig) -> list[str]:
    """rouge.tokenize one character at a time: each character is kept when it is
    alphanumeric and becomes a space otherwise."""
    if config.lowercase:
        text = text.lower()
    if config.strip_non_alnum:
        text = "".join(ch if ch.isalnum() else " " for ch in text)
    tokens = text.split()
    if config.stemming:
        tokens = [_porter.stem(t) for t in tokens]
    return tokens


_URL_RE = re.compile(r"https?://\S+|www\.\S+")
_MENTION_RE = re.compile(r"@\w+")
_WS_RE = re.compile(r"\s+")


def naive_clean_tweet_text(text: str) -> str:
    """Three unconditional regex substitutions, as tweet text was first cleaned."""
    text = _URL_RE.sub("http://url", text)
    text = _MENTION_RE.sub("@user", text)
    return _WS_RE.sub(" ", text).strip()


def naive_read_tweet_csv(path) -> list[tuple[str, Tweet]]:
    """(tweet_id, Tweet) pairs as tweets were first decoded: csv.DictReader rows, each value
    str()ed and stripped again, inbound read per row, blank ids and texts dropped."""
    pairs = []
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for row in csv.DictReader(fh):
            tid = str(row["tweet_id"]).strip()
            text = naive_clean_tweet_text(str(row["text"]))
            if not tid or not text:
                continue
            parent = str(row.get("in_response_to_tweet_id") or "").strip() or None
            inbound = str(row["inbound"]).strip().lower() in ("true", "1", "yes")
            pairs.append((tid, Tweet(SpeakerRole.CUSTOMER if inbound else SpeakerRole.AGENT, text, parent)))
    return pairs


# the bytes that CSV syntax turns on, and a field longer than csv's field limit
CSV_PIECES = ['"', ",", "\n", "x" * 140_000]


def naive_csv_rows(path, what: str, columns) -> list[tuple[int, tuple[str, ...]]]:
    """(line, values) rows of a CSV input as they were first read: csv.reader over the
    whole file's `naive_lines`, with `csv_rows`'s header, width and blank-row rules, and
    every error naming the file."""
    rows = []
    reader = csv.reader(naive_lines(path))
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
        for fields in reader:
            if not fields:
                continue
            if len(fields) != len(header):
                raise ParseError(reader.line_num, f"{what} row has {len(fields)} field(s), the header has {len(header)}")
            rows.append((reader.line_num, tuple(fields[header.index(c)] for c in columns)))
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc), path) from None
    except ParseError as exc:
        raise ParseError(exc.line, exc.detail, path) from None
    return rows


def naive_undecodable_byte(data: bytes) -> tuple[int, str] | None:
    """(line, message) for the first byte of `data` that is not UTF-8, from one decode of
    the whole bytes, its line counted from the line ends (CR LF, a lone CR or LF) before it;
    None when every byte is."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as error:
        line = 1 + len(re.findall(rb"\r\n|\r|\n", data[: error.start]))
        return line, f"'utf-8' codec can't decode byte 0x{data[error.start]:02x} at offset {error.start}: {error.reason}"
    return None


# a BOM, ASCII, 2-4-byte characters and line ends, then invalid start and continuation
# bytes, an encoded surrogate, and sequences cut short
VALID_UTF8_PIECES = [b"\n", b"\r", b"\r\n", b"\xef\xbb\xbf", b"a", "\xe9".encode(), "\u20ac".encode(), "\U0001f600".encode()]
UTF8_PIECES = [*VALID_UTF8_PIECES, b"\x80", b"\xff", b"\xc0\xaf", b"\xe2(", b"\xf0\x9f(", b"\xed\xa0\x80",
               b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98"]


def naive_lines(path):
    """The lines of the file at `path` as text mode with encoding "utf-8-sig" and newline=""
    reads them, up to the line that holds its first byte that is not UTF-8, where the
    ParseError of naive_undecodable_byte is raised: a faulty line before it comes first."""
    data = Path(path).read_bytes()
    bad = naive_undecodable_byte(data)
    if bad is not None:
        data = b"".join(data.splitlines(keepends=True)[: bad[0] - 1])
    yield from io.StringIO(data.decode("utf-8-sig"), newline="")
    if bad is not None:
        raise ParseError(*bad)


@contextmanager
def piped(data: bytes):
    """A path, /dev/fd/N, that reads `data` through a pipe that a thread writes."""
    read_end, write_end = os.pipe()

    def feed():
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(write_end, view):]
        except BrokenPipeError:
            pass  # the reader stopped early
        finally:
            os.close(write_end)

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)
        thread.join()


# characters a JSON string escapes, or writes as they are though a reader may trip on them:
# quote, backslash, C0 controls, DEL, the JavaScript line separators, non-ASCII, non-BMP
JSON_TEXT_PIECES = ['"', "\\", "\x00", "\b", "\t", "\n", "\x0c", "\r", "\x1f", "\x7f", "\u2028", "\u2029",
                    "\xe9", "\u4e2d", "\U0001f600", "a b"]


def naive_jsonl_line(record: dict) -> str:
    """A JSONL line as persum writes it: compact, with non-ASCII as it is, keys in `record`'s order."""
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def naive_json_objects(lines) -> list[tuple[int, dict]]:
    """(line, object) pairs of JSONL `lines` as they were first read: every line that is not
    blank decoded on its own by `decode_json`."""
    objects = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        record = decode_json(raw, lineno)
        if not isinstance(record, dict):
            raise ParseError(lineno, "expected a JSON object")
        if "\\u" in raw:
            reject_lone_surrogates(raw, lineno)
        objects.append((lineno, record))
    return objects


def naive_reconstruct_threads(pairs) -> tuple[list[Dialog], ThreadReport]:
    """Dialogs and report of (tweet_id, Tweet) pairs as threads were first rebuilt: a
    depth-first search from each root to its first deepest leaf, a visited set, and a
    search for the components of the tweets no root reached."""
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
        dialog = _naive_chain_to_dialog(root, path[::-1], tweets)
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


def _naive_chain_to_dialog(root: str, path: list[str], tweets: dict[str, Tweet]) -> Dialog | None:
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


def _naive_score(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{text!r} is not a score in [0, 1]")
    return value


def _naive_field(parse, column: str, text: str, line: int):
    try:
        return parse(text)
    except ValueError as exc:
        raise ParseError(line, f"{column}: {exc}") from None


def naive_read_dump(path) -> Runs:
    """The per-dialog dump read one row at a time, as it was first read: csv.reader over the
    whole file, a header that must be the columns as written, every row's key and scores
    parsed on their own, and the first faulty row in line order (`naive_lines`) raising its
    fault, naming the file."""
    runs: Runs = {}
    key_parsers = (str, Perspective, int, int)
    width = len(PER_DIALOG_COLUMNS)
    reader = csv.reader(naive_lines(path))
    try:
        if next(reader, None) != list(PER_DIALOG_COLUMNS):
            raise ParseError(1, "per-dialog dump header is not the columns as written")
        for record in reader:
            line = reader.line_num
            if not record:
                continue
            if len(record) != width:
                raise ParseError(line, f"per-dialog dump row has {len(record)} field(s), the header has {width}")
            did, method, perspective, size, seed = record[:5]
            key = tuple(_naive_field(parse, column, text, line) for parse, column, text in zip(key_parsers, PER_DIALOG_COLUMNS[1:5], record[1:5]))
            scores = runs.setdefault(key, {})
            if did in scores:
                raise ParseError(line, f"dialog {did!r} repeats in run ({method}, {perspective}, size={size}, seed={seed})")
            scores[did] = tuple(_naive_field(_naive_score, column, text, line) for column, text in zip(PER_DIALOG_COLUMNS[5:], record[5:]))
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc), path) from None
    except ParseError as exc:
        raise ParseError(exc.line, exc.detail, path) from None
    return runs


def dump_rows(runs: Runs):
    """The dump rows of `runs` as (dialog_id, method, perspective, size, seed, *scores), in
    dump order."""
    for key, scores in runs.items():
        for did, row_scores in scores.items():
            yield (did, *key, *row_scores)


def naive_pair_scores(candidate: str, reference: str, config: TokenizerConfig) -> tuple[float, ...]:
    """(r1_p, r1_r, r1_f, r2_f, rl_f) of a candidate against a reference, from the naive
    tokenizer, n-gram and LCS oracles."""
    cand, ref = naive_tokenize(candidate, config), naive_tokenize(reference, config)
    return (*naive_ngram_prf(cand, ref, 1), naive_ngram_prf(cand, ref, 2)[2], naive_lcs_prf(cand, ref)[2])


def _naive_cell(cell: tuple[str, int, int]) -> str:
    return "({}, size={}, seed={})".format(*cell)


class _NaiveRunFails(Exception):
    """Ends a naive run with the text of the error that run_experiment raises."""


def naive_run_experiment(corpus: Corpus, config, external=(), negative_zeros=()):
    """run_experiment on a valid config, put together from the naive oracles: candidates
    from naive_builtin_candidate and naive_external_candidate, scores from
    naive_pair_scores, a run's mean as math.fsum over its dialogs divided by their number,
    a cell's mean and deviation over its runs in seed order from `statistics`, and the dump
    written with csv.writer and repr. The zero scores of the score columns (0 to 4) in
    `negative_zeros` are -0.0, as a scorer that signs its zeros would give them; prediction
    sets name distinct cells.

    Returns (cells, dump, warnings). `cells` maps each (method, perspective, variant) to
    {size: (mean, deviation, number of runs)}; when the run fails, it is the error's text
    and the dump is None."""
    warnings: list[str] = []
    try:
        runs = _naive_runs(corpus, config, external, negative_zeros, warnings)
    except _NaiveRunFails as exc:
        return str(exc), None, warnings

    by_cell = defaultdict(list)
    for method, perspective, size, seed, scores in runs:
        means = [math.fsum(row[col] for row in scores.values()) / len(scores) for col in (2, 3, 4)]
        by_cell[(method, perspective, size)].append((seed, means))
    cells: dict = {}
    for (method, perspective, size), seed_means in by_cell.items():
        seed_means.sort()
        for col, variant in enumerate(("rouge1", "rouge2", "rougeL")):
            values = [means[col] for _, means in seed_means]
            deviation = statistics.stdev(values) if len(values) > 1 else 0.0
            cells.setdefault((method, perspective, variant), {})[size] = (statistics.fmean(values), deviation, len(values))

    dump = []
    rows = ([did, method, perspective.value, size, seed, *map(repr, row)]
            for method, perspective, size, seed, scores in runs for did, row in scores.items())
    for fields in [PER_DIALOG_COLUMNS, *rows]:
        line = io.StringIO()
        csv.writer(line, lineterminator="\r\n").writerow(fields)  # "\r\n" quotes a lone "\r" too
        dump.append(line.getvalue()[:-2] + "\n")
    return cells, "".join(dump), warnings


def _naive_runs(corpus: Corpus, config, external, negative_zeros, warnings: list[str]) -> list[tuple]:
    """naive_run_experiment's runs that score a dialog, as (method, perspective, size, seed,
    {dialog id: scores}) in scoring order."""
    tests = [d.id for d in corpus.dialogs if corpus.split[d.id] == Split.TEST]
    test_ids = [did for did in tests if did in corpus.gold]
    if len(tests) > len(test_ids):
        warnings.append(f"{len(tests) - len(test_ids)} test dialog(s) have no gold summary and are not scored")
    if not test_ids:
        raise _NaiveRunFails("no test dialogs with gold summaries to score")
    population = sum(corpus.split[d.id] == Split.TRAIN for d in corpus.dialogs)
    if max(config.sizes) > population and not config.cap_to_population:
        raise _NaiveRunFails(f"subset size {max(config.sizes)} exceeds the {population}-id training population "
                             "(pass cap_to_population to clamp oversized requests)")

    seeds = range(config.n_seeds)
    sets = {(pred.method, pred.training_size, pred.seed): pred.entries for pred in external}
    requested = [(m, size, seed) for m in config.methods if not _BASE_RE.match(m) for size in config.sizes for seed in seeds]
    unrequested = [cell for cell in sets if cell not in requested]
    if unrequested:
        warnings.append(f"{len(unrequested)} prediction set(s) are for cells the config does not request "
                        f"and are not scored, first: {_naive_cell(unrequested[0])}")
    missing = [cell for cell in requested if cell not in sets]
    if missing:
        more = f", … and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise _NaiveRunFails("missing prediction cells: " + ", ".join(map(_naive_cell, missing[:10])) + more)
    stray = [(did, cell) for cell in requested for did in sets[cell] if did not in test_ids]
    if stray:
        warnings.append(f"{len(stray)} prediction entry(ies) are for dialogs that are not scored, "
                        f"first: dialog {stray[0][0]!r} in {_naive_cell(stray[0][1])}")

    def score(candidate, perspective, message) -> dict[str, tuple[float, ...]]:
        """Each test dialog's scores, for the dialogs whose `candidate(did)` is not None."""
        scores = {}
        for did in test_ids:
            cand = candidate(did)
            if cand is None:
                if config.strict_missing:
                    raise _NaiveRunFails(message.format(did))
                warnings.append(message.format(did))
                continue
            gold = corpus.gold[did]
            parts = {"customer": gold.customer_part, "agent": gold.agent_part}
            reference = parts[perspective] if perspective != "full" else parts["customer"] + " " + parts["agent"]
            pair = naive_pair_scores(cand[0], reference, config.tokenizer)
            scores[did] = tuple(-0.0 if col in negative_zeros and not x else x for col, x in enumerate(pair))
        return scores

    dialogs = {d.id: d for d in corpus.dialogs}
    runs = []
    for method in config.methods:
        builtin = _BASE_RE.match(method)
        for perspective in config.perspectives:
            view = perspective.value
            if builtin and (builtin.group(2) is None) == (view == "full"):
                warnings.append(f"{method}: not applicable to the {view} perspective, row skipped")
                continue
            if builtin:  # one candidate per dialog, whatever the cell
                scores = score(lambda did: naive_builtin_candidate(dialogs[did], method, view, config.prefixes, config.min_tokens),
                               view, f"{method}/{view}: no candidate for dialog {{}}")
            for size in config.sizes:
                for seed in seeds:
                    if not builtin:
                        entries = sets[(method, size, seed)]
                        scores = score(lambda did: None if did not in entries else naive_external_candidate(*entries[did], method, view, config.prefixes),
                                       view, f"{method}/{view}: no prediction for dialog {{}} (size={size}, seed={seed})")
                    if scores:
                        runs.append((method, perspective, size, seed, scores))
                    else:
                        warnings.append(f"{method}/{view}: no dialog scored at size={size}, seed={seed}")
    if not runs:
        raise _NaiveRunFails("no dialog scored in any cell")
    return runs


# --- tweet tables ----------------------------------------------------------------

_TWEET_WORDS = VOCAB + ("café", "naïve", "🙂", "ok?", "#help", "it's", "\"quoted\"", "a,b")
_TWEET_EXTRAS = ("@AcmeSupport", "@user_42", "https://t.co/x1", "http://a.b/c?d=1", "www.acme.com/help")
_TWEET_SPACES = (" ", " ", " ", "  ", "\t", "\n", "\xa0", "\u3000", "\x85")
_INBOUND = {True: ("True", "true", " TRUE ", "1", "yes"), False: ("False", "false", "0", "no", "")}


def _tweet_text(rand: random.Random) -> str:
    words = [rand.choice(_TWEET_WORDS) for _ in range(rand.randint(1, 12))]
    if rand.random() < 0.4:
        words.insert(rand.randint(0, len(words)), rand.choice(_TWEET_EXTRAS))
    text = words[0]
    for word in words[1:]:
        text += rand.choice(_TWEET_SPACES) + word
    return rand.choice(("", " ", "\n")) + text + rand.choice(("", " ", "\t"))


def tweet_table(rand: random.Random, n_conversations: int) -> list[tuple[str, ...]]:
    """Kaggle-schema tweet rows (header first), seeded, in shuffled order.

    Conversations are reply chains of 1-8 tweets with same-role runs, some with a
    second branch, a missing parent, a reply cycle, only one role, or a blank tweet.
    """
    rows: list[tuple[str, ...]] = []
    next_id = 1000

    def add(inbound: bool, parent: str, text: str | None = None) -> str:
        nonlocal next_id
        next_id += rand.randint(1, 3)
        tid = str(next_id)
        author = f"cust{rand.randint(1, 50)}" if inbound else "AcmeSupport"
        rows.append((tid, author, rand.choice(_INBOUND[inbound]), "Tue Oct 31 22:10:47 +0000 2017",
                     _tweet_text(rand) if text is None else text, "", parent))
        return tid

    for _ in range(n_conversations):
        kind = rand.random()
        if kind < 0.05:  # two tweets replying to each other
            first = add(True, "")
            second = add(False, first)
            rows[-2] = (*rows[-2][:-1], second)
            continue
        one_sided = kind < 0.12
        parent = "404" if kind < 0.2 else ""
        inbound = True
        chain = []
        for _ in range(rand.randint(1, 8)):
            text = " \t " if rand.random() < 0.03 else None
            parent = add(inbound, parent, text)
            chain.append(parent)
            if not one_sided and rand.random() < 0.7:
                inbound = not inbound
        if rand.random() < 0.15:  # a second branch from an earlier tweet of the chain
            parent = rand.choice(chain)
            for _ in range(rand.randint(1, 4)):
                inbound = not inbound
                parent = add(inbound, parent)
    rand.shuffle(rows)
    return [TWEET_CSV_COLUMNS, *rows]
