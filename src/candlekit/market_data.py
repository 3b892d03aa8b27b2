"""OHLC series: CSV ingestion, seeded synthetic generation, windowing.

CSV format: comma-separated, UTF-8, header row, ``.`` decimal separator.
The ``Date`` column holds, in one form for the whole document, either
``YYYY-MM-DD`` calendar dates (stored as their proleptic-Gregorian ordinal day
index) or bare integer indexes (written for a series with a timestamp before
1600, i.e. synthetic day counters); the first row read sets the form, and a
row in the other form is a bad row. Prices are written with up to 9
fractional digits, trailing zeros trimmed, so ``parse_csv(write_csv(s))``
reproduces a series field-exactly.

The synthetic generator is a geometric random walk,

    close[t] = close[t-1] * exp(drift + volatility * z_t)
    open[t]  = close[t-1]
    high[t]  = max(open, close) * (1 + wick_frac * u_up)
    low[t]   = min(open, close) * (1 - wick_frac * u_dn)

where per candle the seeded stream (see :mod:`candlekit.rng`) is consumed
in the fixed order: two uniforms for z (Box-Muller), then u_up, then u_dn.
Identical ``(seed, n, params)`` therefore give byte-identical series in any
conforming implementation.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
from dataclasses import dataclass
from datetime import date
from typing import Literal, get_args

from .errors import BadParams, BadRow, MissingColumn, NonMonotonicDates, OutOfRange
from .rng import Rng

logger = logging.getLogger(__name__)

# A series with a timestamp below this ordinal (1600-01-01) is written to CSV
# with bare indexes; real market dates always land above it.
_MIN_ISO_ORDINAL = date(1600, 1, 1).toordinal()
_MAX_ORDINAL = date.max.toordinal()

# Most candles in a synthetic series (``--synth``, a manifest's ``synth.n``): far above the
# benchmark's 1,500-candle desk series, far below a length that would exhaust memory.
MAX_SYNTH_N = 100_000


@dataclass(frozen=True)
class Candle:
    """One OHLC bar. Prices must be finite, positive, and ordered."""

    timestamp: int
    open: float
    high: float
    low: float
    close: float

    def __post_init__(self) -> None:
        prices = (self.open, self.high, self.low, self.close)
        if not all(math.isfinite(p) and p > 0 for p in prices):
            raise BadRow(f"non-finite or non-positive price in {prices}")
        if self.low > min(self.open, self.close) or self.high < max(self.open, self.close):
            raise BadRow(
                f"low/high do not bracket open/close: "
                f"O={self.open} H={self.high} L={self.low} C={self.close}"
            )


@dataclass(frozen=True)
class Series:
    """Ordered candles for one symbol, timestamps strictly increasing."""

    symbol: str
    candles: tuple[Candle, ...]

    def __post_init__(self) -> None:
        ts = [c.timestamp for c in self.candles]
        for prev, cur in zip(ts, ts[1:]):
            if cur <= prev:
                raise NonMonotonicDates(f"timestamp {cur} follows {prev}")

    def __len__(self) -> int:
        return len(self.candles)

    def __getitem__(self, i: int) -> Candle:
        return self.candles[i]


@dataclass(frozen=True)
class CandleWindow:
    """Contiguous slice of a parent series ending at ``source_end_index``."""

    candles: tuple[Candle, ...]
    source_end_index: int

    def __len__(self) -> int:
        return len(self.candles)


@dataclass(frozen=True)
class ColumnMap:
    """CSV header names for each field (exchange-download convention)."""

    date: str = "Date"
    open: str = "Open"
    high: str = "High"
    low: str = "Low"
    close: str = "Close"


BadRowPolicy = Literal["strict", "skip_with_warning"]


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_timestamp(text: str) -> tuple[int, bool]:
    """(timestamp, whether the cell is a date): a YYYY-MM-DD date as its ordinal, else an integer."""
    text = text.strip()
    if _ISO_DATE.fullmatch(text):
        return date.fromisoformat(text).toordinal(), True
    return int(text), False  # parse_csv reports the ValueError of a cell in neither form


def format_price(p: float) -> str:
    """Up to 9 fractional digits, trailing zeros (and bare dot) trimmed."""
    text = f"{p:.9f}".rstrip("0").rstrip(".")
    return text if text else "0"


def _csv_rows(text: str):
    """The rows of a CSV document; BadRow where the csv module cannot split it."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:  # e.g. a bare carriage return, or an over-long field
        raise BadRow(f"line {reader.line_num}: {exc}") from exc


def parse_csv(
    text: str,
    column_map: ColumnMap = ColumnMap(),
    *,
    symbol: str = "SERIES",
    on_bad_row: BadRowPolicy = "skip_with_warning",
) -> Series:
    """Parse a CSV document into a Series.

    Rows that fail to parse or violate candle invariants are rejected
    (``strict``) or skipped with a warning (``skip_with_warning``, the
    default; real downloads contain holiday gaps and stray rows).
    Out-of-order dates always raise :class:`NonMonotonicDates`, and text
    the csv module cannot split into rows always raises :class:`BadRow`.
    Any other ``on_bad_row`` raises :class:`BadParams`.
    """
    if on_bad_row not in get_args(BadRowPolicy):
        raise BadParams(f"on_bad_row must be one of {get_args(BadRowPolicy)}, got {on_bad_row!r}")
    reader = _csv_rows(text)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("empty document, no header row") from None
    header = [h.strip() for h in header]

    idx: dict[str, int] = {}
    for fld in ("date", "open", "high", "low", "close"):
        name = getattr(column_map, fld)
        if name not in header:
            raise MissingColumn(f"header {header} lacks column {name!r}")
        idx[fld] = header.index(name)

    candles: list[Candle] = []
    skipped = 0
    dates = None  # whether the document's date cells are dates, once a row has been read
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            ts, is_date = _parse_timestamp(row[idx["date"]])
            if dates is not None and is_date != dates:
                form = "a YYYY-MM-DD date" if dates else "an integer"
                raise BadRow(f"date cell {row[idx['date']]!r} is not {form}, as the first row's is")
            candle = Candle(
                timestamp=ts,
                open=float(row[idx["open"]]),
                high=float(row[idx["high"]]),
                low=float(row[idx["low"]]),
                close=float(row[idx["close"]]),
            )
        except (BadRow, ValueError, IndexError) as exc:
            if on_bad_row == "strict":
                raise BadRow(f"line {lineno}: {exc}") from exc
            skipped += 1
            logger.warning("skipping bad row at line %d: %s", lineno, exc)
            continue
        dates = is_date
        candles.append(candle)

    if skipped:
        logger.warning("parse_csv skipped %d bad row(s) for %s", skipped, symbol)
    return Series(symbol=symbol, candles=tuple(candles))


def write_csv(series: Series, column_map: ColumnMap = ColumnMap()) -> str:
    """Emit a Series as CSV; inverse of :func:`parse_csv` field-for-field. Dates are
    YYYY-MM-DD unless a timestamp lies outside 1600-01-01..9999-12-31, then all are integers."""
    dates = all(_MIN_ISO_ORDINAL <= c.timestamp <= _MAX_ORDINAL for c in series.candles)
    lines = [
        ",".join(
            (column_map.date, column_map.open, column_map.high, column_map.low, column_map.close)
        )
    ]
    for c in series.candles:
        lines.append(
            ",".join(
                (
                    date.fromordinal(c.timestamp).isoformat() if dates else str(c.timestamp),
                    format_price(c.open),
                    format_price(c.high),
                    format_price(c.low),
                    format_price(c.close),
                )
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SynthParams:
    """Geometric-random-walk parameters.

    ``volatility`` may be zero (degenerate walk used by tests); negative
    values are rejected. ``wick_frac`` is the maximum relative wick
    extension and must stay below 1 so lows remain positive.
    """

    start_price: float = 100.0
    drift: float = 0.0005
    volatility: float = 0.02
    wick_frac: float = 0.01

    def __post_init__(self) -> None:
        if self.start_price <= 0:
            raise BadParams(f"start_price must be > 0, got {self.start_price}")
        if self.volatility < 0:
            raise BadParams(f"volatility must be >= 0, got {self.volatility}")
        if not 0 <= self.wick_frac < 1:
            raise BadParams(f"wick_frac must be in [0, 1), got {self.wick_frac}")


def synth_series(
    seed: int,
    n: int,
    params: SynthParams = SynthParams(),
    *,
    symbol: str | None = None,
) -> Series:
    """Deterministic synthetic daily series with timestamps 0..n-1; an ``n`` outside
    [1, MAX_SYNTH_N], or a walk that leaves the positive finite floats, raises BadParams."""
    if not 1 <= n <= MAX_SYNTH_N:
        raise BadParams(f"n must be in [1, {MAX_SYNTH_N}], got {n}")
    rng = Rng(seed)
    name = symbol if symbol is not None else f"SYNTH-{seed}"
    candles: list[Candle] = []
    prev = params.start_price
    for t in range(n):
        z = rng.normal()
        u_up = rng.uniform()
        u_dn = rng.uniform()
        try:
            close = prev * math.exp(params.drift + params.volatility * z)
            high = max(prev, close) * (1.0 + params.wick_frac * u_up)
            low = min(prev, close) * (1.0 - params.wick_frac * u_dn)
            candles.append(Candle(timestamp=t, open=prev, high=high, low=low, close=close))
        except (OverflowError, BadRow) as exc:  # the walk left the positive finite floats
            raise BadParams(f"synthetic candle {t} is out of float range: {exc}") from exc
        prev = close
    return Series(symbol=name, candles=tuple(candles))


def window(series: Series, end_index: int, w: int) -> CandleWindow:
    """The ``w`` candles ending at ``end_index`` (inclusive)."""
    if w < 1:
        raise OutOfRange(f"window size must be >= 1, got {w}")
    if end_index >= len(series) or end_index < w - 1:
        raise OutOfRange(
            f"end_index {end_index} with w={w} out of range for series of {len(series)}"
        )
    return CandleWindow(
        candles=series.candles[end_index - w + 1 : end_index + 1],
        source_end_index=end_index,
    )
