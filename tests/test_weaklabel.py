from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum import (
    Corpus,
    HeuristicKind,
    SpeakerRole,
    lead_utterance,
    long_utterance,
    make_dialog,
    make_weak_pair,
    weaklabel_corpus,
)
from persum.weaklabel import WeakPair, serialize_dialog, utterance_line, write_weak_pairs
from util import JSON_TEXT_PIECES, naive_jsonl_line, naive_lead, naive_long, random_dialog

C = SpeakerRole.CUSTOMER
A = SpeakerRole.AGENT


def test_lead_picks_first_customer_turn_on_helpdesk(helpdesk_dialog):
    lead = lead_utterance(helpdesk_dialog, C)
    assert lead is helpdesk_dialog.utterances[0]
    assert len(lead.text.split()) >= 5


def test_lead_skips_short_turns():
    dialog = make_dialog(
        "d1",
        [(C, "Thank you"), (A, "You are welcome, anything else I can do"), (C, "yes the app is crashing on startup")],
    )
    assert lead_utterance(dialog, C) is dialog.utterances[2]


def test_lead_none_when_all_turns_short():
    dialog = make_dialog("d1", [(C, "hi"), (A, "hello there my friend, how can I help"), (C, "it broke")])
    assert lead_utterance(dialog, C) is None


def test_lead_min_tokens_validation():
    dialog = make_dialog("d1", [(C, "hello")])
    with pytest.raises(ValueError):
        lead_utterance(dialog, C, min_tokens=0)


def test_long_picks_token_maximum_on_helpdesk(helpdesk_dialog):
    assert long_utterance(helpdesk_dialog, A) is helpdesk_dialog.utterances[3]


def test_long_tie_breaks_to_earliest_index():
    dialog = make_dialog(
        "d1",
        [
            (C, "question"),
            (A, "one two three four five six seven"),
            (C, "ok"),
            (A, "uno dos tres cuatro cinco seis siete"),
        ],
    )
    assert long_utterance(dialog, A) is dialog.utterances[1]


def test_long_none_when_role_absent():
    dialog = make_dialog("d1", [(C, "anyone out there"), (C, "hello")])
    assert long_utterance(dialog, A) is None


def test_serialize_dialog_role_prefixed_lines():
    dialog = make_dialog("d1", [(C, "it broke"), (A, "try rebooting")])
    assert serialize_dialog(dialog) == "customer: it broke\nagent: try rebooting"


def test_make_weak_pair_unmasked():
    dialog = make_dialog(
        "d1",
        [(C, "my laptop will not start at all"), (A, "hold the power button"), (C, "ok trying"), (A, "any luck")],
    )
    pair = make_weak_pair(dialog, C, HeuristicKind.LEAD)
    assert pair.target == "my laptop will not start at all"
    assert pair.source.count("\n") == 3
    assert "customer: my laptop will not start at all" in pair.source


def test_make_weak_pair_masked_removes_target_line():
    dialog = make_dialog(
        "d1",
        [(C, "my laptop will not start at all"), (A, "hold the power button"), (C, "ok trying"), (A, "any luck")],
    )
    pair = make_weak_pair(dialog, C, HeuristicKind.LEAD, masked=True)
    assert pair.source.count("\n") == 2
    assert "my laptop will not start at all" not in pair.source


def test_make_weak_pair_none_when_heuristic_fails():
    dialog = make_dialog("d1", [(C, "hi"), (A, "hello")])
    assert make_weak_pair(dialog, C, HeuristicKind.LEAD) is None


def test_masked_pair_drops_duplicate_target_lines():
    text = "the same exact long utterance again"
    dialog = make_dialog("d1", [(C, text), (A, "short reply"), (C, text)])
    pair = make_weak_pair(dialog, C, HeuristicKind.LONG, masked=True)
    assert f"customer: {text}" not in pair.source.splitlines()
    assert pair.source == "agent: short reply"


def test_mask_soundness_over_random_dialogs():
    rand = random.Random(31)
    for i in range(300):
        dialog = random_dialog(rand, f"d{i}")
        for role in (C, A):
            for heuristic in HeuristicKind:
                pair = make_weak_pair(dialog, role, heuristic, masked=True)
                if pair is None:
                    continue
                target_line = f"{role.value}: {pair.target}"
                assert target_line not in pair.source.splitlines()
                unmasked = make_weak_pair(dialog, role, heuristic, masked=False)
                assert target_line in unmasked.source.splitlines()


def test_perspective_purity_over_random_dialogs():
    rand = random.Random(77)
    for i in range(200):
        dialog = random_dialog(rand, f"d{i}")
        for role in (C, A):
            pair = make_weak_pair(dialog, role, HeuristicKind.LONG)
            if pair is None:
                assert all(u.role != role for u in dialog.utterances)
                continue
            sources = [u for u in dialog.utterances if u.text == pair.target and u.role == role]
            assert sources, "target must come from an utterance of the requested perspective"


def test_heuristics_match_naive_scans():
    rand = random.Random(13)
    for i in range(300):
        dialog = random_dialog(rand, f"d{i}")
        for role in (C, A):
            assert lead_utterance(dialog, role) is naive_lead(dialog, role)
            assert long_utterance(dialog, role) is naive_long(dialog, role)


def make_corpus(dialogs):
    corpus = Corpus(list(dialogs))
    corpus.validate()
    return corpus


def test_weaklabel_corpus_counts_with_exclusion():
    dialogs = [
        make_dialog(f"d{i}", [(C, "my screen is flickering all the time"), (A, "please update the driver")])
        for i in range(3)
    ]
    pairs, report = weaklabel_corpus(
        make_corpus(dialogs), C, HeuristicKind.LEAD, exclude_ids={"d1"}
    )
    assert [p.dialog_id for p in pairs] == ["d0", "d2"]
    assert report._asdict() == {"total": 3, "excluded": 1, "labeled": 2, "skipped": 0}


def test_weaklabel_corpus_counts_skips():
    dialogs = [
        make_dialog("d0", [(C, "short"), (A, "reply")]),
        make_dialog("d1", [(C, "this one is long enough to label"), (A, "reply")]),
    ]
    pairs, report = weaklabel_corpus(make_corpus(dialogs), C, HeuristicKind.LEAD)
    assert len(pairs) == 1
    assert report._asdict() == {"total": 2, "excluded": 0, "labeled": 1, "skipped": 1}


def test_weaklabel_corpus_empty():
    pairs, report = weaklabel_corpus(Corpus([]), C, HeuristicKind.LEAD)
    assert pairs == []
    assert report._asdict() == {"total": 0, "excluded": 0, "labeled": 0, "skipped": 0}


def test_weaklabel_corpus_idempotent_streaming():
    rand = random.Random(3)
    dialogs = [random_dialog(rand, f"d{i}") for i in range(50)]
    corpus = make_corpus(dialogs)
    first, _ = weaklabel_corpus(corpus, A, HeuristicKind.LONG, masked=True)
    second, _ = weaklabel_corpus(corpus, A, HeuristicKind.LONG, masked=True)
    assert first == second


def test_write_weak_pairs_jsonl_schema(tmp_path):
    dialog = make_dialog("d1", [(C, "the printer is jammed again today"), (A, "clear tray two")])
    pair = make_weak_pair(dialog, C, HeuristicKind.LEAD)
    path = tmp_path / "pairs.jsonl"
    write_weak_pairs([pair], path, C, HeuristicKind.LEAD, False)
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record == {
        "dialog_id": "d1",
        "perspective": "customer",
        "heuristic": "lead",
        "masked": False,
        "source": "customer: the printer is jammed again today\nagent: clear tray two",
        "target": "the printer is jammed again today",
    }


_JSON_TEXT = st.lists(st.sampled_from(JSON_TEXT_PIECES) | st.characters(codec="utf-8"), max_size=6).map("".join)


def _naive_pair_lines(pairs, role, heuristic, masked) -> str:
    return "".join(
        naive_jsonl_line({"dialog_id": dialog_id, "perspective": role.value, "heuristic": heuristic.value,
                          "masked": masked, "source": source, "target": target}) + "\n"
        for dialog_id, source, target in pairs
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(WeakPair, _JSON_TEXT, _JSON_TEXT, _JSON_TEXT), max_size=5),
       st.sampled_from(SpeakerRole), st.sampled_from(HeuristicKind), st.booleans())
def test_write_weak_pairs_equals_json_dumps_oracle(tmp_path_factory, pairs, role, heuristic, masked):
    """Every line is json.dumps of the record, compact and not ASCII-escaped, whatever the
    strings hold, for both roles, both heuristics and either masking."""
    path = tmp_path_factory.mktemp("pairs") / "pairs.jsonl"
    write_weak_pairs(pairs, path, role, heuristic, masked)
    assert path.read_bytes() == _naive_pair_lines(pairs, role, heuristic, masked).encode("utf-8")


@pytest.mark.parametrize("where", [0, 1, 2], ids=["dialog_id", "source", "target"])
def test_write_weak_pairs_lone_surrogate_fails_like_oracle(tmp_path, where):
    pair = WeakPair(*("a\ud800" if field == where else "b" for field in range(3)))
    with pytest.raises(UnicodeEncodeError):
        _naive_pair_lines([pair], A, HeuristicKind.LONG, True).encode("utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_weak_pairs([pair], tmp_path / "pairs.jsonl", A, HeuristicKind.LONG, True)


def test_utterance_line_format():
    dialog = make_dialog("d1", [(A, "hello")])
    assert utterance_line(dialog.utterances[0]) == "agent: hello"
