"""Independent re-implementation of what `persum score` computes for one dump row.

Plain scans, list.count and a full quadratic LCS table, written apart from the
library (the same approach as the naive oracles in tests/util.py), so a faster
kernel in the library is checked against code it does not share.
"""

from __future__ import annotations

import re

OPENER = re.compile(r"^(the\s+)?(customer|agent)\b", re.IGNORECASE)
PREFIX = {"customer": "The customer says: ", "agent": "The agent says: "}
POST_PROCESS = re.compile(r"(?:^|_)post_process(?:_|$)")
BUILTIN = re.compile(r"^(lead|long)(?:_(lead|long))?(_post_process)?_base$")
MIN_TOKENS = 5


def tokenize(text: str) -> list[str]:
    return "".join(ch if ch.isalnum() else " " for ch in text.lower()).split()


def _prf(overlap: int, cand_total: int, ref_total: int) -> tuple[float, float, float]:
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def ngram_prf(cand: list[str], ref: list[str], n: int) -> tuple[float, float, float]:
    cand_grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    overlap = 0
    for gram in set(cand_grams):
        overlap += min(cand_grams.count(gram), ref_grams.count(gram))
    return _prf(overlap, len(cand_grams), len(ref_grams))


def lcs_prf(cand: list[str], ref: list[str]) -> tuple[float, float, float]:
    m, n = len(cand), len(ref)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if cand[i - 1] == ref[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return _prf(table[m][n], m, n)


def scores(candidate: str, reference: str) -> tuple[float, float, float, float, float]:
    """(r1_p, r1_r, r1_f, r2_f, rl_f), the dump's score columns."""
    cand, ref = tokenize(candidate), tokenize(reference)
    r1 = ngram_prf(cand, ref, 1)
    return r1[0], r1[1], r1[2], ngram_prf(cand, ref, 2)[2], lcs_prf(cand, ref)[2]


def reference(gold: dict, perspective: str) -> str:
    if perspective == "full":
        return gold["customer"] + " " + gold["agent"]
    return gold[perspective]


def _prefixed(text: str, side: str) -> str:
    return text if OPENER.match(text) else PREFIX[side] + text


def external_candidate(entry: dict | None, method: str, perspective: str) -> str | None:
    """Candidate text of a prediction entry, or None when the dialog is not scorable."""
    if entry is None:
        return None
    post = POST_PROCESS.search(method) is not None
    sides = ("customer", "agent") if perspective == "full" else (perspective,)
    parts = []
    for side in sides:
        raw = entry.get(side)
        if raw is None or not raw.strip():
            continue
        parts.append(_prefixed(raw, side) if post else raw)
    return " ".join(parts) if parts else None


def _select(utterances: list[dict], side: str, heuristic: str) -> str | None:
    mine = [u["text"] for u in utterances if u["role"] == side]
    if heuristic == "lead":
        long_enough = [t for t in mine if len(t.split()) >= MIN_TOKENS]
        return long_enough[0] if long_enough else None
    best = None
    for text in mine:
        if best is None or len(text.split()) > len(best.split()):
            best = text
    return best


def builtin_applies(method: str, perspective: str) -> bool:
    two_sided = BUILTIN.match(method).group(2) is not None
    return two_sided == (perspective == "full")


def builtin_candidate(utterances: list[dict], method: str, perspective: str) -> str | None:
    """Candidate text of a built-in baseline on one dialog, or None when none exists."""
    first, second, post = BUILTIN.match(method).groups()
    if perspective == "full":
        plan = (("customer", first), ("agent", second))
    else:
        plan = ((perspective, first),)
    parts = []
    for side, heuristic in plan:
        text = _select(utterances, side, heuristic)
        if text is None:
            return None
        parts.append(_prefixed(text, side) if post else text)
    return " ".join(parts)
