import struct

import pytest
from hypothesis import strategies as st

from candlekit import Candle, Series, SynthParams, synth_series

# Checkpoint array records numpy cannot shape: 65 dims (its limit is 64) with the one value they
# hold, and a zero dim beside two dims whose product overflows numpy's size.
DIMS_65 = struct.pack("<66I", 65, *[1] * 65) + struct.pack("<f", 0.0)
HUGE_ZERO_DIMS = struct.pack("<4I", 3, 0, 2**32 - 1, 2**32 - 1)
# A header integer longer than int() converts by default (sys.get_int_max_str_digits is 4300).
LONG_INT = b"9" * 5001


@pytest.fixture
def walk_series() -> Series:
    return synth_series(7, 200)


@pytest.fixture
def constant_series() -> Series:
    params = SynthParams(start_price=100.0, drift=0.0, volatility=0.0, wick_frac=0.0)
    return synth_series(1, 60, params)


def make_series(rows, symbol="T") -> Series:
    """Series from (o, h, l, c) tuples with timestamps 0..n-1."""
    candles = tuple(
        Candle(timestamp=t, open=o, high=h, low=l, close=c)
        for t, (o, h, l, c) in enumerate(rows)
    )
    return Series(symbol=symbol, candles=candles)


@st.composite
def mutated(draw, valid: bytes, chunks: tuple[bytes, ...], spots: tuple[int, ...]) -> bytes:
    """``valid`` after one to four edits: a deletion, an insertion of random bytes or of one of
    ``chunks``, or a truncation, each at a random offset or at one of ``spots`` (where a field starts)."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = min(draw(st.sampled_from(spots) | st.integers(0, len(data))), len(data))
        edit = draw(st.sampled_from(["delete", "insert", "truncate"]))
        if edit == "delete":
            del data[at : at + draw(st.integers(1, 16))]
        elif edit == "insert":
            data[at:at] = draw(st.sampled_from(chunks) | st.binary(min_size=1, max_size=16))
        else:
            del data[at:]
    return bytes(data)
