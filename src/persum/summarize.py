"""Candidate summaries: heuristic baselines, indirect-speech post-processing,
and ingestion of externally generated predictions.

Every candidate joins its perspective's sides (customer first) with one space,
each side prefixed before the join when the method post-processes.

Method names are canonical snake_case strings. The built-in family is the
heuristic baselines, e.g. ``lead_base``, ``long_post_process_base``, and the
two-sided ``lead_long_post_process_base`` (customer heuristic, agent heuristic).
Every other name is an external method whose outputs must be supplied as
prediction files; names containing ``post_process`` get the prefix rule applied
by the harness before scoring.
"""

from __future__ import annotations

import re
from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import Dialog, ParseError, SpeakerRole, _naming_file, encode_json_line, json_objects
from .weaklabel import DEFAULT_MIN_TOKENS, HeuristicKind, select_target


class Perspective(str, Enum):
    CUSTOMER = "customer"
    AGENT = "agent"
    FULL = "full"

    @property
    def roles(self) -> tuple[SpeakerRole, ...]:
        """The speaker roles a summary of this perspective covers, in join order."""
        return _PERSPECTIVE_ROLES[self]


_PERSPECTIVE_ROLES = {
    Perspective.CUSTOMER: (SpeakerRole.CUSTOMER,),
    Perspective.AGENT: (SpeakerRole.AGENT,),
    Perspective.FULL: (SpeakerRole.CUSTOMER, SpeakerRole.AGENT),
}


class CandidateSummary(NamedTuple):
    """A candidate's text and whether the prefix rule fired on any of its sides."""

    text: str
    post_processed: bool = False


# --- post-processing ----------------------------------------------------------

OPENER_PATTERN = re.compile(r"^(the\s+)?(customer|agent)\b", re.IGNORECASE)


class PrefixConfig(NamedTuple):
    customer: str = "The customer says: "
    agent: str = "The agent says: "

    def for_role(self, role: SpeakerRole) -> str:
        return self.customer if role is SpeakerRole.CUSTOMER else self.agent


DEFAULT_PREFIXES = PrefixConfig()


def post_process(
    text: str, role: SpeakerRole, prefixes: PrefixConfig = DEFAULT_PREFIXES
) -> tuple[str, bool]:
    """Prepend an indirect-speech clause unless the text already opens with one."""
    if not text:
        raise ValueError("cannot post-process empty text")
    if OPENER_PATTERN.match(text):
        return text, False
    return prefixes.for_role(role) + text, True


def post_process_rate(candidates: Sequence[CandidateSummary]) -> float:
    """Fraction of candidates on which the prefix rule fired."""
    if not candidates:
        raise ValueError("cannot compute a post-process rate over an empty list")
    fired = sum(1 for c in candidates if c.post_processed)
    return fired / len(candidates)


# --- method names -------------------------------------------------------------

_BUILTIN_RE = re.compile(r"^(lead|long)(?:_(lead|long))?(_post_process)?_base$")
_POST_PROCESS_RE = re.compile(r"(?:^|_)post_process(?:_|$)")


class BuiltinMethodSpec(NamedTuple):
    name: str
    customer_heuristic: HeuristicKind
    agent_heuristic: HeuristicKind
    post_process: bool
    two_sided: bool  # name carries one heuristic per perspective; full view only

    def applies_to(self, perspective: Perspective) -> bool:
        """A two-sided method summarizes only the full perspective, a one-sided one every other."""
        return self.two_sided == (perspective is Perspective.FULL)

    def require(self, perspective: Perspective) -> None:
        """Raise ValueError, saying why, unless the method applies to `perspective`."""
        if self.applies_to(perspective):
            return
        if self.two_sided:
            raise ValueError(f"method {self.name!r} applies only to the full perspective")
        raise ValueError(
            f"method {self.name!r} names one heuristic; the full perspective needs "
            f"a two-sided method such as 'lead_long_post_process_base'"
        )


def parse_builtin_method(name: str) -> BuiltinMethodSpec | None:
    """Describe a built-in heuristic baseline, or return None for external names."""
    match = _BUILTIN_RE.match(name)
    if match is None:
        return None
    first = HeuristicKind(match.group(1))
    second = HeuristicKind(match.group(2)) if match.group(2) else first
    return BuiltinMethodSpec(
        name, first, second, post_process=match.group(3) is not None, two_sided=match.group(2) is not None
    )


def method_has_post_process(name: str) -> bool:
    return _POST_PROCESS_RE.search(name) is not None


def _candidate(
    sides: Sequence[tuple[SpeakerRole, str]], apply_prefix: bool, prefixes: PrefixConfig
) -> CandidateSummary | None:
    """Join the (role, text) sides with one space, each prefixed first when apply_prefix
    is set; None when there are no sides."""
    if not sides:
        return None
    texts = []
    fired_any = False
    for role, text in sides:
        if apply_prefix:
            text, fired = post_process(text, role, prefixes)
            fired_any = fired_any or fired
        texts.append(text)
    return CandidateSummary(" ".join(texts), fired_any)


def builtin_candidate(
    dialog: Dialog,
    spec: BuiltinMethodSpec,
    perspective: Perspective,
    prefixes: PrefixConfig = DEFAULT_PREFIXES,
    min_tokens: int = DEFAULT_MIN_TOKENS,
) -> CandidateSummary | None:
    """Produce one built-in candidate, or None when a heuristic finds nothing; ValueError
    when the method does not apply to the perspective."""
    spec.require(perspective)
    sides = []
    for role in perspective.roles:
        heuristic = spec.customer_heuristic if role is SpeakerRole.CUSTOMER else spec.agent_heuristic
        target = select_target(dialog, role, heuristic, min_tokens)
        if target is None:
            return None
        sides.append((role, target.text))
    return _candidate(sides, spec.post_process, prefixes)


# --- external predictions -----------------------------------------------------


class PredictionEntry(NamedTuple):
    customer: str | None
    agent: str | None


class PredictionSet(NamedTuple):
    """Outputs of one externally trained model at one (size, seed), keyed by dialog id."""

    method: str
    training_size: int
    seed: int
    entries: dict[str, PredictionEntry]

    @property
    def cell(self) -> tuple[str, int, int]:
        return (self.method, self.training_size, self.seed)


def _optional_text(record: dict, key: str, lineno: int) -> str | None:
    value = record.get(key)
    if value is None:
        return None
    if not isinstance(value, str):
        raise ParseError(lineno, f"field {key!r} must be a string or null")
    return value


def parse_predictions(lines: Iterable[str]) -> PredictionSet:
    """Parse prediction JSONL: a header line, then one entry per dialog."""
    header = None
    entries: dict[str, PredictionEntry] = {}
    for lineno, record in json_objects(lines):
        if header is None:
            try:
                header = (record["method"], record["training_size"], record["seed"])
            except KeyError as exc:
                raise ParseError(lineno, "header must carry method, training_size, seed") from exc
            if not isinstance(header[0], str) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in header[1:]
            ):
                raise ParseError(lineno, "bad header field types")
            continue
        did = record.get("dialog_id")
        if not isinstance(did, str) or not did:
            raise ParseError(lineno, "entry missing dialog_id")
        if did in entries:
            raise ParseError(lineno, f"duplicate dialog_id {did!r}")
        entries[did] = PredictionEntry(
            _optional_text(record, "customer", lineno), _optional_text(record, "agent", lineno)
        )
    if header is None:
        raise ParseError(None, "prediction file has no header line")
    return PredictionSet(method=header[0], training_size=header[1], seed=header[2], entries=entries)


def load_predictions(path: str | Path) -> PredictionSet:
    """Read a prediction file; every error names the file, and the line where there is one."""
    with open(path, "r", encoding="utf-8-sig") as fh, _naming_file(path):
        return parse_predictions(fh)


def write_predictions(pred: PredictionSet, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = {"method": pred.method, "training_size": pred.training_size, "seed": pred.seed}
        fh.write(encode_json_line(header) + "\n")
        for did, entry in pred.entries.items():
            record = {"dialog_id": did, "customer": entry.customer, "agent": entry.agent}
            fh.write(encode_json_line(record) + "\n")


def prediction_candidate(
    entry: PredictionEntry,
    method: str,
    perspective: Perspective,
    prefixes: PrefixConfig = DEFAULT_PREFIXES,
) -> CandidateSummary | None:
    """Turn one prediction entry into a candidate for the requested perspective.

    The full perspective joins the non-blank parts, so a model that emits whole
    summaries can populate just one field.
    """
    sides = []
    for role in perspective.roles:
        text = entry.customer if role is SpeakerRole.CUSTOMER else entry.agent
        if text is not None and text.strip():
            sides.append((role, text))
    return _candidate(sides, method_has_post_process(method), prefixes)
