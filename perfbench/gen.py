"""Seeded input generator for the benchmark workloads.

Every file is a pure function of (workload, seed, scale): the same arguments
write byte-identical files. Text comes from a seeded Zipfian vocabulary of a
few thousand pseudo-words, with tweet-like lengths (3-40 tokens), so n-gram
counters and LCS match sets have realistic sizes. Only the standard library
is used, and nothing here imports the program under test.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

SIZES = (0, 16, 32, 64, 128, 256, 512, 1024)
PERSPECTIVES = ("customer", "agent", "full")
EXTERNAL_METHODS = ("pegasus", "bart_post_process")
BASELINE_METHODS = (
    "lead_base",
    "long_base",
    "lead_post_process_base",
    "long_post_process_base",
    "lead_long_post_process_base",
)
COMPANIES = ("AppleSupport", "AmazonHelp", "Uber_Support", "SpotifyCares", "comcastcares", "Delta")
FUNCTION_WORDS = (
    "i", "the", "to", "my", "you", "a", "is", "it", "and", "for", "we", "can", "please",
    "your", "this", "not", "with", "on", "have", "help", "me", "that", "in", "of", "dm",
)
OPENERS = ("The customer", "Customer", "the agent", "Agent")
_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]


def make_rand(workload: str, seed: int) -> random.Random:
    """Generator for one workload's inputs; string seeds hash with SHA-512, not hash()."""
    return random.Random(f"perfbench:{workload}:{seed}")


class Vocabulary:
    """Zipf-distributed pseudo-words; a few surface forms carry case or punctuation."""

    def __init__(self, rand: random.Random, size: int = 3000, exponent: float = 1.07):
        words = list(FUNCTION_WORDS)
        seen = set(words)
        while len(words) < size:
            word = "".join(rand.choice(_SYLLABLES) for _ in range(rand.randint(1, 3)))
            if word in seen:
                continue
            seen.add(word)
            roll = rand.random()
            if roll < 0.04:
                word = word.capitalize()
            elif roll < 0.06:
                word += "'s"
            elif roll < 0.07:
                word += "-" + rand.choice(_SYLLABLES)
            words.append(word)
        self.words = words
        total = 0.0
        self.cum_weights = []
        for rank in range(1, size + 1):
            total += 1.0 / rank**exponent
            self.cum_weights.append(total)
        self.rand = rand

    def tokens(self, n: int) -> list[str]:
        return self.rand.choices(self.words, cum_weights=self.cum_weights, k=n)

    def length(self, lo: int = 3, hi: int = 40) -> int:
        return min(hi, max(lo, round(self.rand.lognormvariate(math.log(11), 0.6))))

    def stratified_lengths(self, n: int, lo: int = 3, hi: int = 40) -> list[int]:
        """n lengths at evenly spaced quantiles of the length law, in seeded order.

        Small scored sets use these, so their total cost hardly varies with the seed.
        """
        law = statistics.NormalDist(math.log(11), 0.6)
        out = [min(hi, max(lo, round(math.exp(law.inv_cdf((i + 0.5) / n))))) for i in range(n)]
        self.rand.shuffle(out)
        return out

    def text(self, n: int | None = None) -> str:
        n = self.length() if n is None else n
        return " ".join(self.tokens(n)) + self.rand.choice((".", "?", "!", "", ""))


def _window(vocab: Vocabulary, source: list[str], n: int, replace: float) -> list[str]:
    """A summary-like token run: an ordered window of source with some words replaced."""
    rand = vocab.rand
    start = rand.randrange(len(source))
    out = source[start : start + n]
    out += vocab.tokens(n - len(out))
    return [vocab.tokens(1)[0] if rand.random() < replace else tok for tok in out]


def _noisy_copy(vocab: Vocabulary, reference: str, keep: float) -> str:
    """A model-output-like rewrite of reference: kept, replaced, dropped and inserted words."""
    rand = vocab.rand
    out = []
    for tok in reference.split():
        roll = rand.random()
        if roll < 0.05:
            continue
        out.append(tok if roll < keep else vocab.tokens(1)[0])
        if rand.random() < 0.05:
            out.extend(vocab.tokens(1))
    if not out:
        out = vocab.tokens(3)
    if rand.random() < 0.25:
        out.insert(0, rand.choice(OPENERS))
    return " ".join(out)


# --- scored corpus, predictions and config -----------------------------------


@dataclass(frozen=True)
class ScoringScale:
    n_test: int
    n_seeds: int
    external: bool  # True: external prediction files; False: built-in baselines


def _dialogs(vocab: Vocabulary, ids: list[str], splits: list[str]) -> list[dict]:
    """Dialogs of 2-8 turns with gold for both sides; turn counts and lengths are stratified."""
    rand = vocab.rand
    n = len(ids)
    turn_counts = [2 + (7 * i) // n for i in range(n)]
    rand.shuffle(turn_counts)
    utt_lengths = iter(vocab.stratified_lengths(sum(turn_counts)))
    gold_lengths = {side: iter(vocab.stratified_lengths(n)) for side in ("customer", "agent")}
    dialogs = []
    for did, split, turns in zip(ids, splits, turn_counts):
        roles = ["customer"]
        for _ in range(turns - 1):
            last = roles[-1]
            other = "agent" if last == "customer" else "customer"
            roles.append(other if rand.random() < 0.8 else last)
        if "agent" not in roles:
            roles[-1] = "agent"
        utterances = [{"role": role, "text": vocab.text(next(utt_lengths))} for role in roles]
        gold = {}
        for side in ("customer", "agent"):
            source = [t for u in utterances if u["role"] == side for t in u["text"].split()]
            gold[side] = " ".join(_window(vocab, source, next(gold_lengths[side]), replace=0.3))
        dialogs.append({"id": did, "utterances": utterances, "gold": gold, "split": split})
    return dialogs


def write_scoring_inputs(out: Path, rand: random.Random, scale: ScoringScale) -> None:
    """Write corpus.jsonl (10 % test split, gold for all), prediction files and config.json."""
    vocab = Vocabulary(rand)
    n = 10 * scale.n_test
    ids = [f"d{i:06d}" for i in range(n)]
    rand.shuffle(ids)
    test_ids, rest_ids = ids[: scale.n_test], ids[scale.n_test :]
    rest_splits = ["val"] * scale.n_test + ["train"] * (n - 2 * scale.n_test)
    test = _dialogs(vocab, test_ids, ["test"] * scale.n_test)
    dialogs = sorted(test + _dialogs(vocab, rest_ids, rest_splits), key=lambda d: d["id"])
    _write_jsonl(out / "corpus.jsonl", dialogs)

    predictions = []
    methods = BASELINE_METHODS
    if scale.external:
        methods = EXTERNAL_METHODS
        for method in methods:
            for size in SIZES:
                keep = min(0.9, 0.35 + 0.06 * math.log2(size + 1))
                for seed in range(scale.n_seeds):
                    name = f"pred_{method}_{size}_{seed}.jsonl"
                    records = [{"method": method, "training_size": size, "seed": seed}]
                    for d in test:
                        roll = rand.random()
                        if roll < 0.0075:
                            continue  # entry missing from the file
                        entry = {
                            "dialog_id": d["id"],
                            "customer": _noisy_copy(vocab, d["gold"]["customer"], keep),
                            "agent": _noisy_copy(vocab, d["gold"]["agent"], keep),
                        }
                        if roll < 0.015:
                            entry[rand.choice(("customer", "agent"))] = None
                        records.append(entry)
                    _write_jsonl(out / name, records)
                    predictions.append(name)

    config = {
        "methods": list(methods),
        "perspectives": list(PERSPECTIVES),
        "sizes": list(SIZES),
        "n_seeds": scale.n_seeds,
        "cap_to_population": True,
        "corpus": "corpus.jsonl",
        "predictions": predictions,
    }
    (out / "config.json").write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")


# --- Kaggle-schema tweet CSV ---------------------------------------------------

TWEET_COLUMNS = (
    "tweet_id",
    "author_id",
    "inbound",
    "created_at",
    "text",
    "response_tweet_id",
    "in_response_to_tweet_id",
)
_DEPTH_WEIGHTS = (5, 20, 20, 15, 12, 9, 7, 5, 4, 3)  # chain length 1..10
_EPOCH = 1509400000  # late October 2017, as in the public dataset


def write_tweet_csv(path: Path, rand: random.Random, n_conversations: int) -> dict:
    """Write a shuffled tweet CSV of reply chains; returns {"tweets": row count}.

    Chains have mixed depth, same-side runs (merged into one utterance by
    ingest), a few one-sided chains (dropped), some branching replies and some
    roots whose parent tweet is missing. Texts carry mentions and URLs.
    """
    vocab = Vocabulary(rand)
    rows: list[dict] = []
    next_id = 1 + rand.randrange(10**6)

    def tweet(parent: str, inbound: bool, customer: str, company: str, when: int) -> dict:
        nonlocal next_id
        tid = str(next_id)
        next_id += rand.randint(1, 3)
        words = vocab.text()
        if inbound:
            text = f"@{company} {words}"
        else:
            text = f"@{customer} {words}"
            if rand.random() < 0.5:
                text += f" ^{rand.choice('ABCDEFGHJKLMNPRSTW')}{rand.choice('ABCDEFGHJKLMNPRSTW')}"
        if rand.random() < 0.2:
            text += " https://t.co/" + "".join(rand.choice("abcdefghijkLMNOPQ0123456789") for _ in range(10))
        if rand.random() < 0.03:
            text = text.replace(" ", "\n", 1)
        row = {
            "tweet_id": tid,
            "author_id": customer if inbound else company,
            "inbound": "True" if inbound else "False",
            "created_at": time.strftime("%a %b %d %H:%M:%S +0000 %Y", time.gmtime(when)),
            "text": text,
            "response_tweet_id": "",
            "in_response_to_tweet_id": parent,
        }
        rows.append(row)
        return row

    def chain(parent: dict | None, inbound: bool, length: int, one_sided: bool, ctx) -> list[dict]:
        out = []
        for _ in range(length):
            parent_id = parent["tweet_id"] if parent else ""
            row = tweet(parent_id, inbound, *ctx, when=_EPOCH + len(rows) * 7)
            if parent:
                parent["response_tweet_id"] = ",".join(filter(None, (parent["response_tweet_id"], row["tweet_id"])))
            out.append(row)
            parent = row
            if not one_sided and rand.random() < 0.85:
                inbound = not inbound
        return out

    for _ in range(n_conversations):
        ctx = (str(100000 + rand.randrange(900000)), rand.choice(COMPANIES))
        depth = rand.choices(range(1, 11), weights=_DEPTH_WEIGHTS)[0]
        one_sided = rand.random() < 0.04
        main = chain(None, True, depth, one_sided, ctx)
        if rand.random() < 0.04:
            main[0]["in_response_to_tweet_id"] = str(next_id)  # parent absent from the file
            next_id += 1
        if len(main) > 1 and rand.random() < 0.12:
            fork = rand.choice(main[:-1])
            chain(fork, fork["inbound"] == "False", rand.randint(1, 3), False, ctx)

    rand.shuffle(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TWEET_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return {"tweets": len(rows)}
