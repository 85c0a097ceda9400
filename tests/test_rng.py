"""persum's PCG64 against numpy's `Generator(PCG64(seed))`, the stream it reproduces.

numpy is a test-only dependency: the differential tests skip without it, the
argument checks and the import guard do not need it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persum
from persum.rng import make_rng

# Seeds above 2**128 have more than four 32-bit words, which runs
# SeedSequence's extra mixing loop.
SEEDS = st.integers(0, 2**200)


def numpy_generator(seed):
    np = pytest.importorskip("numpy")
    return np.random.Generator(np.random.PCG64(seed))


@settings(max_examples=100, deadline=None)
@given(SEEDS)
def test_raw_outputs_match_numpy(seed):
    expected = numpy_generator(seed).bit_generator.random_raw(8).tolist()
    rng = make_rng(seed)
    assert [rng.next_uint64() for _ in expected] == expected


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.one_of(st.integers(0, 3), st.integers(0, 3000)))
def test_permutation_matches_numpy(seed, n):
    assert make_rng(seed).permutation(n) == numpy_generator(seed).permutation(n).tolist()


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.lists(st.integers(0, 40), max_size=12))
def test_interleaved_calls_share_the_buffered_half(seed, sizes):
    # an odd number of 32-bit draws leaves the high half of a 64-bit output
    # for the next permutation's first draw
    expected = numpy_generator(seed)
    rng = make_rng(seed)
    for n in sizes:
        assert rng.permutation(n) == expected.permutation(n).tolist()


def test_permutation_pinned():
    assert make_rng(0).permutation(10) == [4, 6, 2, 7, 3, 5, 9, 0, 8, 1]
    assert make_rng(0).permutation(0) == []
    assert make_rng(0).permutation(1) == [0]


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (-(2**70), ValueError), (1.0, TypeError),
                                          ("3", TypeError), (None, TypeError)])
def test_bad_seed_raises(seed, error):
    with pytest.raises(error, match="seed must be"):
        make_rng(seed)


def test_import_does_not_load_numpy():
    src = Path(persum.__file__).resolve().parent.parent
    code = "import sys, persum.cli; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"
