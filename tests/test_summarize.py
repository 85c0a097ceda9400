from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum import (
    HeuristicKind,
    ParseError,
    Perspective,
    SpeakerRole,
    make_dialog,
    post_process,
)
from persum.summarize import (
    OPENER_PATTERN,
    PredictionEntry,
    PredictionSet,
    PrefixConfig,
    _BUILTIN_RE,
    builtin_candidate,
    load_predictions,
    method_has_post_process,
    parse_builtin_method,
    parse_predictions,
    prediction_candidate,
)
from util import naive_builtin_candidate, naive_external_candidate, random_dialog

C = SpeakerRole.CUSTOMER
A = SpeakerRole.AGENT


# --- heuristic baselines ---------------------------------------------------------


def test_base_candidate_is_first_customer_turn(helpdesk_dialog):
    cand = builtin_candidate(helpdesk_dialog, parse_builtin_method("lead_base"), Perspective.CUSTOMER)
    assert cand == (helpdesk_dialog.utterances[0].text, False)


def test_base_candidate_is_longest_agent_turn(helpdesk_dialog):
    cand = builtin_candidate(helpdesk_dialog, parse_builtin_method("long_base"), Perspective.AGENT)
    assert cand.text == helpdesk_dialog.utterances[3].text


def test_base_candidate_none_when_role_missing():
    dialog = make_dialog("d1", [(C, "is anyone even reading these messages")])
    assert builtin_candidate(dialog, parse_builtin_method("long_base"), Perspective.AGENT) is None


def test_base_purity_verbatim_utterance():
    rand = random.Random(8)
    specs = [parse_builtin_method(name) for name in ("lead_base", "long_base")]
    for i in range(200):
        dialog = random_dialog(rand, f"d{i}")
        for perspective in (Perspective.CUSTOMER, Perspective.AGENT):
            for spec in specs:
                cand = builtin_candidate(dialog, spec, perspective)
                if cand is not None:
                    assert cand.text in {u.text for u in dialog.utterances}


# --- post-processing ----------------------------------------------------------------


def test_post_process_keeps_existing_opener():
    text, fired = post_process("Customer asks about a refund.", C)
    assert text == "Customer asks about a refund."
    assert not fired


def test_post_process_keeps_the_agent_opener():
    text, fired = post_process("The agent suggested restarting.", A)
    assert text == "The agent suggested restarting."
    assert not fired


def test_post_process_prepends_prefix():
    text, fired = post_process("cannot attach files to email.", C)
    assert text == "The customer says: cannot attach files to email."
    assert fired


def test_post_process_is_case_insensitive():
    for opener in ("the customer left.", "AGENT escalated.", "The Agent replied."):
        _, fired = post_process(opener, A)
        assert not fired


def test_post_process_requires_word_boundary():
    text, fired = post_process("customers keep asking", C)
    assert fired
    assert text.startswith("The customer says: ")


def test_post_process_accepts_other_roles_opener():
    # the detection is role-agnostic: an agent summary starting with "Customer"
    # already carries an indirect-speech opener
    _, fired = post_process("Customer was asked to reboot.", A)
    assert not fired


def test_post_process_empty_text_errors():
    with pytest.raises(ValueError):
        post_process("", C)


def test_post_process_custom_prefixes():
    prefixes = PrefixConfig(customer="The customer asks: ", agent="The agent answers: ")
    text, fired = post_process("router keeps rebooting", A, prefixes)
    assert text == "The agent answers: router keeps rebooting"
    assert fired


@given(st.text(min_size=1).filter(lambda t: t.strip()))
def test_post_process_idempotent(text):
    once, fired_once = post_process(text, C)
    twice, fired_twice = post_process(once, C)
    assert twice == once
    assert not fired_twice
    assert fired_once == (OPENER_PATTERN.match(text) is None)


def test_prefixed_output_matches_detector():
    rand = random.Random(15)
    alphabet = "abcdefghijklmnopqrstuvwxyz ,.!?"
    for _ in range(500):
        text = "".join(rand.choice(alphabet) for _ in range(rand.randint(1, 40))).strip() or "x"
        for role in (C, A):
            out, fired = post_process(text, role)
            assert OPENER_PATTERN.match(out)
            if fired:
                assert out.endswith(text)


# --- method names -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,post,two_sided",
    [
        ("lead_base", False, False),
        ("long_base", False, False),
        ("lead_post_process_base", True, False),
        ("long_post_process_base", True, False),
        ("lead_long_base", False, True),
        ("lead_long_post_process_base", True, True),
        ("long_lead_base", False, True),
    ],
)
def test_parse_builtin_method(name, post, two_sided):
    spec = parse_builtin_method(name)
    assert spec is not None
    assert spec.post_process is post
    assert spec.two_sided is two_sided


@pytest.mark.parametrize("name", ["lead", "long_post_process", "pegasus", "lead_masked", "leadbase"])
def test_non_builtin_methods(name):
    assert parse_builtin_method(name) is None


def test_method_has_post_process():
    assert method_has_post_process("lead_post_process")
    assert method_has_post_process("lead_long_post_process")
    assert not method_has_post_process("pegasus")
    assert not method_has_post_process("lead_base")


def test_builtin_candidate_full_concatenates_post_processed_parts(helpdesk_dialog):
    spec = parse_builtin_method("lead_long_post_process_base")
    cand = builtin_candidate(helpdesk_dialog, spec, Perspective.FULL)
    lead_text, _ = post_process(helpdesk_dialog.utterances[0].text, C)
    long_text, _ = post_process(helpdesk_dialog.utterances[3].text, A)
    assert cand == (lead_text + " " + long_text, True)


def test_builtin_candidate_perspective_mismatch(helpdesk_dialog):
    two_sided = parse_builtin_method("lead_long_base")
    with pytest.raises(ValueError):
        builtin_candidate(helpdesk_dialog, two_sided, Perspective.CUSTOMER)
    single = parse_builtin_method("lead_base")
    with pytest.raises(ValueError):
        builtin_candidate(helpdesk_dialog, single, Perspective.FULL)


# --- predictions ----------------------------------------------------------------------


def sample_predictions():
    entries = {
        "d1": PredictionEntry("the customer need", "the agent answer"),
        "d2": PredictionEntry("another need", None),
    }
    return PredictionSet(method="pegasus", training_size=16, seed=0, entries=entries)


def test_predictions_round_trip(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        '{"method":"pegasus","training_size":16,"seed":0}\n'
        '{"dialog_id":"d1","customer":"the customer need","agent":"the agent answer"}\n'
        '{"dialog_id":"d2","customer":"another need","agent":null}\n',
        encoding="utf-8",
    )
    loaded = load_predictions(path)
    assert loaded == sample_predictions()
    assert loaded.cell == ("pegasus", 16, 0)


def test_load_predictions_reads_100000_entries_in_linear_time(tmp_path):
    """100 000 entries read in at most 0.25 s (three reads) on a 2-vCPU host; the limit is
    ten times that or more."""
    path = tmp_path / "preds.jsonl"
    entries = (json.dumps({"dialog_id": f"d{i}", "customer": f"need {i}", "agent": None}) for i in range(100_000))
    path.write_text("\n".join(['{"method":"pegasus","training_size":16,"seed":0}', *entries, ""]), encoding="utf-8")
    start = time.perf_counter()
    loaded = load_predictions(path)
    elapsed = time.perf_counter() - start
    assert (len(loaded.entries), loaded.entries["d99999"]) == (100_000, PredictionEntry("need 99999", None))
    assert elapsed < 4.0, f"{elapsed:.2f} s"


def test_parse_predictions_duplicate_id():
    lines = [
        '{"method": "pegasus", "training_size": 16, "seed": 0}',
        '{"dialog_id": "d1", "customer": "a", "agent": "b"}',
        '{"dialog_id": "d1", "customer": "c", "agent": "d"}',
    ]
    with pytest.raises(ParseError, match="duplicate"):
        parse_predictions(lines)


def test_parse_predictions_requires_header():
    with pytest.raises(ParseError):
        parse_predictions(['{"dialog_id": "d1", "customer": "a", "agent": null}'])
    with pytest.raises(ParseError):
        parse_predictions([])


def test_parse_predictions_rejects_bad_types():
    with pytest.raises(ParseError):
        parse_predictions(['{"method": "m", "training_size": true, "seed": 0}'])
    lines = [
        '{"method": "m", "training_size": 16, "seed": 0}',
        '{"dialog_id": "d1", "customer": 5, "agent": null}',
    ]
    with pytest.raises(ParseError):
        parse_predictions(lines)


@pytest.mark.parametrize("size, seed", [(-3, -1), (-3, 0), (16, -1)])
def test_parse_predictions_rejects_negative_size_or_seed(size, seed):
    header = f'{{"method": "m_post_process", "training_size": {size}, "seed": {seed}}}'
    with pytest.raises(ParseError, match="^line 1: training_size and seed must be non-negative$"):
        parse_predictions([header, '{"dialog_id": "d1", "customer": "a", "agent": null}'])


def test_parse_predictions_bad_json_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_predictions(['{"method": "m", "training_size": 1, "seed": 0}', "{oops"])


def test_prediction_candidate_single_perspective():
    entry = PredictionEntry("needs a refund now", None)
    cand = prediction_candidate(entry, "pegasus", Perspective.CUSTOMER)
    assert cand.text == "needs a refund now"
    assert not cand.post_processed
    assert prediction_candidate(entry, "pegasus", Perspective.AGENT) is None


def test_prediction_candidate_applies_post_process_by_method_name():
    entry = PredictionEntry("needs a refund now", None)
    cand = prediction_candidate(entry, "lead_post_process", Perspective.CUSTOMER)
    assert cand.text == "The customer says: needs a refund now"
    assert cand.post_processed


def test_prediction_candidate_full_joins_parts():
    entry = PredictionEntry("the need", "the fix")
    cand = prediction_candidate(entry, "pegasus_persp", Perspective.FULL)
    assert cand.text == "the need the fix"


def test_prediction_candidate_full_single_part():
    entry = PredictionEntry("a whole summary in one field", None)
    cand = prediction_candidate(entry, "pegasus", Perspective.FULL)
    assert cand.text == "a whole summary in one field"
    assert prediction_candidate(PredictionEntry(None, None), "pegasus", Perspective.FULL) is None


def test_prediction_candidate_full_post_processes_each_part():
    entry = PredictionEntry("cannot log in", "reset the password")
    cand = prediction_candidate(entry, "lead_long_post_process", Perspective.FULL)
    assert cand.text == "The customer says: cannot log in The agent says: reset the password"
    assert cand.post_processed


# --- candidates against the naive oracle -------------------------------------------------

BUILTIN_NAMES = [
    f"{first}{second}{post}_base"
    for first in ("lead", "long")
    for second in ("", "_lead", "_long")
    for post in ("", "_post_process")
]
WORDS = ("the", "The", "customer", "Customer", "agent", "AGENT", "customers", "alpha", "bravo", "says:")
WORDS_TEXT = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)
PREFIXES = st.builds(PrefixConfig, customer=st.text(max_size=6), agent=st.text(max_size=6)) | st.just(PrefixConfig())


@st.composite
def dialogs(draw):
    """Dialogs of 1-8 turns; sometimes every turn has one role, so the other role is missing."""
    roles = st.sampled_from([C, A]) if draw(st.booleans()) else st.just(draw(st.sampled_from([C, A])))
    turns = draw(st.lists(st.tuples(roles, WORDS_TEXT), min_size=1, max_size=8))
    return make_dialog("d1", turns)


PARTS = st.none() | st.sampled_from(["", "   ", "\t\n"]) | WORDS_TEXT | st.builds(
    lambda pad, text, tail: pad + text + tail,
    st.sampled_from([" ", "\t", "\n "]),
    st.sampled_from(["The customer wants a refund", "the  agent replied", "Customer left", "agent"]) | WORDS_TEXT,
    st.sampled_from(["", " ", "\n"]),
)


def test_builtin_names_cover_the_pattern():
    assert all(_BUILTIN_RE.match(name) for name in BUILTIN_NAMES)
    assert len(set(BUILTIN_NAMES)) == 12


@settings(max_examples=150, deadline=None)
@given(dialogs(), PREFIXES, st.integers(1, 6))
def test_builtin_candidate_equals_naive_oracle(dialog, prefixes, min_tokens):
    for name in BUILTIN_NAMES:
        spec = parse_builtin_method(name)
        for perspective in Perspective:
            if spec.two_sided != (perspective is Perspective.FULL):
                with pytest.raises(ValueError):
                    builtin_candidate(dialog, spec, perspective, prefixes, min_tokens)
                continue
            cand = builtin_candidate(dialog, spec, perspective, prefixes, min_tokens)
            expected = naive_builtin_candidate(dialog, name, perspective.value, prefixes, min_tokens)
            assert cand == expected


@settings(max_examples=200, deadline=None)
@given(
    PARTS,
    PARTS,
    st.sampled_from(["pegasus", "lead_post_process", "x_post_process_y", "post_process", "post_processing"]),
    PREFIXES,
)
def test_prediction_candidate_equals_naive_oracle(customer, agent, method, prefixes):
    entry = PredictionEntry(customer, agent)
    for perspective in Perspective:
        cand = prediction_candidate(entry, method, perspective, prefixes)
        expected = naive_external_candidate(customer, agent, method, perspective.value, prefixes)
        assert cand == expected
