"""Candidate summaries: heuristic baselines, indirect-speech post-processing,
and ingestion of externally generated predictions.

Every candidate joins its perspective's sides (customer first) with one space,
each side prefixed before the join when the method post-processes.

Method names are canonical snake_case strings. The built-in family is the
heuristic baselines, e.g. ``lead_base``, ``long_post_process_base``, and the
two-sided ``lead_long_post_process_base`` (customer heuristic, agent heuristic).
Every other name is an external method whose outputs must be supplied as
prediction files; names containing ``post_process``, built-in or not, get the
prefix rule applied by the harness before scoring. A built-in method's output on
a dialog is a prediction entry too (``builtin_entry``), so one scorer serves both.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cache
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .corpus import Dialog, ParseError, SpeakerRole, json_objects, read_lines
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


# --- method names -------------------------------------------------------------

_BUILTIN_RE = re.compile(r"^(lead|long)(?:_(lead|long))?(?:_post_process)?_base$")
_POST_PROCESS_RE = re.compile(r"(?:^|_)post_process(?:_|$)")


class BuiltinMethodSpec(NamedTuple):
    name: str
    customer_heuristic: HeuristicKind
    agent_heuristic: HeuristicKind
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
    return BuiltinMethodSpec(name, first, second, two_sided=match.group(2) is not None)


@cache  # a run has few method names and asks once per candidate
def method_has_post_process(name: str) -> bool:
    return _POST_PROCESS_RE.search(name) is not None


# --- prediction entries: read from an external method's files, or a built-in method's output ---


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
    if value is not None and not isinstance(value, str):
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
            if header[1] < 0 or header[2] < 0:
                raise ParseError(lineno, "training_size and seed must be non-negative")
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
    with read_lines(path) as lines:
        return parse_predictions(lines)


def prediction_sides(
    entry: PredictionEntry, method: str, roles: Sequence[SpeakerRole], prefixes: PrefixConfig = DEFAULT_PREFIXES
) -> dict[SpeakerRole, tuple[str, bool]]:
    """The entry's non-blank sides among `roles`, in join order: each role's (text, fired), its text
    prefixed first when the method post-processes, and whether the prefix rule fired."""
    apply_prefix = method_has_post_process(method)
    sides = {}
    for role in roles:
        text = entry.customer if role is SpeakerRole.CUSTOMER else entry.agent
        if text is not None and text.strip():
            sides[role] = post_process(text, role, prefixes) if apply_prefix else (text, False)
    return sides


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
    sides = prediction_sides(entry, method, perspective.roles, prefixes)
    if not sides:
        return None
    texts, fired = zip(*sides.values())
    return CandidateSummary(" ".join(texts), any(fired))


def builtin_entry(
    dialog: Dialog, spec: BuiltinMethodSpec, roles: Iterable[SpeakerRole], min_tokens: int = DEFAULT_MIN_TOKENS
) -> PredictionEntry:
    """The built-in method's output on `dialog` as a prediction entry: the text its heuristic
    selects for each of `roles`, None where a role has none. A two-sided method holds neither
    side unless both exist, as its candidate needs both."""
    texts = {}
    for role in roles:
        heuristic = spec.customer_heuristic if role is SpeakerRole.CUSTOMER else spec.agent_heuristic
        target = select_target(dialog, role, heuristic, min_tokens)
        texts[role] = None if target is None else target.text
    if spec.two_sided and None in texts.values():
        return PredictionEntry(None, None)
    return PredictionEntry(texts.get(SpeakerRole.CUSTOMER), texts.get(SpeakerRole.AGENT))


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
    entry = builtin_entry(dialog, spec, perspective.roles, min_tokens)
    return prediction_candidate(entry, spec.name, perspective, prefixes)
