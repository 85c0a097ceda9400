from __future__ import annotations

import signal
from pathlib import Path

import pytest

from persum import read_corpus

DATA_DIR = Path(__file__).parent / "data"

# Far above the slowest test (a few seconds), so that only a test that would not end
# fails on it: a loop that never ends fails its test instead of hanging the suite.
TEST_TIME_LIMIT_S = 120
# A failing hypothesis test may shrink its example for up to 300 s of its own
# (MAX_SHRINKING_SECONDS), so it gets room to report the falsifying example.
HYPOTHESIS_TIME_LIMIT_S = 420


@pytest.fixture(autouse=True)
def time_limit(request):
    """Fail a test that runs past its limit (HYPOTHESIS_TIME_LIMIT_S for a hypothesis test,
    TEST_TIME_LIMIT_S for any other) by SIGALRM in the main thread; no thread or process is
    started, and where SIGALRM does not exist nothing is armed."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    hypothesis_test = getattr(request.function, "is_hypothesis_test", False)
    limit = HYPOTHESIS_TIME_LIMIT_S if hypothesis_test else TEST_TIME_LIMIT_S

    def expire(signum, frame):
        pytest.fail(f"test ran past its {limit} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def helpdesk_path() -> Path:
    return DATA_DIR / "helpdesk.jsonl"


@pytest.fixture(scope="session")
def helpdesk_corpus(helpdesk_path):
    return read_corpus(helpdesk_path)


@pytest.fixture(scope="session")
def helpdesk_dialog(helpdesk_corpus):
    return helpdesk_corpus.dialogs[0]
