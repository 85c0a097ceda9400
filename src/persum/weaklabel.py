"""Lead/Long weak-labeling heuristics producing (source, target) training pairs.

A weak pair pairs the flattened dialog text with one utterance of the requested
perspective: the first sufficiently long utterance (lead) or the longest one
(long). The masked variant removes the target utterance from the source, which
is the hand-off format expected by sequence-to-sequence trainers.
"""

from __future__ import annotations

from enum import Enum
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import Corpus, Dialog, SpeakerRole, Utterance

DEFAULT_MIN_TOKENS = 5


class HeuristicKind(str, Enum):
    LEAD = "lead"
    LONG = "long"


class WeakPair(NamedTuple):
    """One weak pair; its perspective, heuristic and masking are the ones it was asked for."""

    dialog_id: str
    source: str
    target: str


class CoverageReport(NamedTuple):
    total: int = 0
    excluded: int = 0
    labeled: int = 0
    skipped: int = 0


def lead_utterance(
    dialog: Dialog, role: SpeakerRole, min_tokens: int = DEFAULT_MIN_TOKENS
) -> Utterance | None:
    """Earliest utterance of the role with at least min_tokens words (str.split)."""
    if min_tokens < 1:
        raise ValueError("min_tokens must be >= 1")
    for utt in dialog.utterances:
        if utt.role == role and len(utt.text.split()) >= min_tokens:
            return utt
    return None


def long_utterance(dialog: Dialog, role: SpeakerRole) -> Utterance | None:
    """Utterance of the role with the most words (str.split); earliest index wins ties."""
    best: Utterance | None = None
    most = -1
    for utt in dialog.utterances:
        if utt.role == role:
            words = len(utt.text.split())
            if words > most:
                best, most = utt, words
    return best


def select_target(
    dialog: Dialog,
    role: SpeakerRole,
    heuristic: HeuristicKind,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> Utterance | None:
    if heuristic is HeuristicKind.LEAD:
        return lead_utterance(dialog, role, min_tokens)
    return long_utterance(dialog, role)


def utterance_line(utt: Utterance) -> str:
    return utt.role + ": " + utt.text  # a SpeakerRole is a str holding its value


def serialize_dialog(dialog: Dialog, drop_line: str | None = None) -> str:
    """Flatten to role-prefixed lines; optionally drop every line equal to drop_line.

    Dropping works by text equality so a masked source never contains the target
    line, even when duplicate utterances exist.
    """
    lines = [utterance_line(u) for u in dialog.utterances]
    if drop_line is not None:
        lines = [line for line in lines if line != drop_line]
    return "\n".join(lines)


def make_weak_pair(
    dialog: Dialog,
    role: SpeakerRole,
    heuristic: HeuristicKind,
    masked: bool = False,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> WeakPair | None:
    """Build one weak pair, or None when the heuristic finds no target."""
    target = select_target(dialog, role, heuristic, min_tokens)
    if target is None:
        return None
    drop = utterance_line(target) if masked else None
    return WeakPair(dialog.id, serialize_dialog(dialog, drop_line=drop), target.text)


def weaklabel_corpus(
    corpus: Corpus,
    role: SpeakerRole,
    heuristic: HeuristicKind,
    masked: bool = False,
    exclude_ids: Iterable[str] = (),
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> tuple[list[WeakPair], CoverageReport]:
    """Label every non-excluded dialog; skips (not errors) when a heuristic fails."""
    exclude = set(exclude_ids)
    excluded = skipped = 0
    pairs: list[WeakPair] = []
    for dialog in corpus.dialogs:
        if dialog.id in exclude:
            excluded += 1
            continue
        pair = make_weak_pair(dialog, role, heuristic, masked, min_tokens)
        if pair is None:
            skipped += 1
        else:
            pairs.append(pair)
    return pairs, CoverageReport(len(corpus.dialogs), excluded, len(pairs), skipped)


def write_weak_pairs(
    pairs: Sequence[WeakPair], path: str | Path, role: SpeakerRole, heuristic: HeuristicKind, masked: bool
) -> None:
    """One JSONL line per pair: `corpus.encode_json_line` of {"dialog_id", "perspective", "heuristic",
    "masked", "source", "target"}, built from pre-encoded pieces (the middle three shared by all
    pairs), so every dialog id, source and target must be a str."""
    middle = (',"perspective":' + encode_basestring(role) + ',"heuristic":' + encode_basestring(heuristic)
              + ',"masked":' + ("true" if masked else "false") + ',"source":')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for dialog_id, source, target in pairs:
            fh.write('{"dialog_id":' + encode_basestring(dialog_id) + middle + encode_basestring(source)
                     + ',"target":' + encode_basestring(target) + "}\n")
