"""The per-test time limit that conftest.py arms: a hypothesis test gets room to shrink a
failure, any other test the tighter limit."""

from __future__ import annotations

import signal

import pytest
from conftest import HYPOTHESIS_TIME_LIMIT_S, TEST_TIME_LIMIT_S
from hypothesis import given, settings
from hypothesis import strategies as st

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM, so no limit is armed")


def armed_s() -> float:
    return signal.getitimer(signal.ITIMER_REAL)[0]


def test_limits_leave_hypothesis_its_shrink_time():
    from hypothesis.internal.conjecture.engine import MAX_SHRINKING_SECONDS

    assert TEST_TIME_LIMIT_S < MAX_SHRINKING_SECONDS < HYPOTHESIS_TIME_LIMIT_S


def test_plain_test_gets_the_plain_limit():
    assert TEST_TIME_LIMIT_S - 10 < armed_s() <= TEST_TIME_LIMIT_S


@settings(max_examples=5, deadline=None)
@given(st.integers())
def test_hypothesis_test_gets_the_hypothesis_limit(n):
    assert HYPOTHESIS_TIME_LIMIT_S - 10 < armed_s() <= HYPOTHESIS_TIME_LIMIT_S
