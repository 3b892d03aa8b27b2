"""Rule-based candlestick pattern detection.

Ten classic formations with explicit, parameterized predicates. Per-candle
quantities: body = |close - open|, range = high - low, upper wick =
high - max(open, close), lower wick = min(open, close) - low; a candle is
bullish iff close > open.

Trend context for the reversal shapes compares the mean close of the
``trend_lookback`` candles immediately before the pattern against the
pattern's first open: down-context iff

    mean_close - first_open >= trend_min_slope_frac * first_open

and up-context is the mirror image. With the default slope fraction of 0 a
perfectly flat approach counts as both.

Zero-range candles: the Doji rule matches them by convention; every rule
that takes a ratio of a wick to the range treats range == 0 as a non-match.
All predicates compare ratios of price differences, so detection is
invariant under scaling every price by a positive constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import BadParams, OutOfRange
from .market_data import Candle, Series


class Direction(Enum):
    BULLISH = "bullish"
    BEARISH = "bearish"
    NEUTRAL = "neutral"


class PatternKind(Enum):
    DOJI = "doji"
    HAMMER = "hammer"
    INVERTED_HAMMER = "inverted_hammer"
    SHOOTING_STAR = "shooting_star"
    BULLISH_ENGULFING = "bullish_engulfing"
    BEARISH_ENGULFING = "bearish_engulfing"
    MORNING_STAR = "morning_star"
    EVENING_STAR = "evening_star"
    THREE_WHITE_SOLDIERS = "three_white_soldiers"
    THREE_BLACK_CROWS = "three_black_crows"


_SPAN: dict[PatternKind, int] = {
    PatternKind.DOJI: 1,
    PatternKind.HAMMER: 1,
    PatternKind.INVERTED_HAMMER: 1,
    PatternKind.SHOOTING_STAR: 1,
    PatternKind.BULLISH_ENGULFING: 2,
    PatternKind.BEARISH_ENGULFING: 2,
    PatternKind.MORNING_STAR: 3,
    PatternKind.EVENING_STAR: 3,
    PatternKind.THREE_WHITE_SOLDIERS: 3,
    PatternKind.THREE_BLACK_CROWS: 3,
}

_DIRECTION: dict[PatternKind, Direction] = {
    PatternKind.DOJI: Direction.NEUTRAL,
    PatternKind.HAMMER: Direction.BULLISH,
    PatternKind.INVERTED_HAMMER: Direction.BULLISH,
    PatternKind.SHOOTING_STAR: Direction.BEARISH,
    PatternKind.BULLISH_ENGULFING: Direction.BULLISH,
    PatternKind.BEARISH_ENGULFING: Direction.BEARISH,
    PatternKind.MORNING_STAR: Direction.BULLISH,
    PatternKind.EVENING_STAR: Direction.BEARISH,
    PatternKind.THREE_WHITE_SOLDIERS: Direction.BULLISH,
    PatternKind.THREE_BLACK_CROWS: Direction.BEARISH,
}


def span_of(kind: PatternKind) -> int:
    return _SPAN[kind]


@dataclass(frozen=True)
class PatternMatch:
    kind: PatternKind
    end_index: int
    span: int
    direction: Direction


@dataclass(frozen=True)
class PatternRuleParams:
    """Thresholds for the rule predicates; defaults are textbook values."""

    doji_body_frac: float = 0.05
    long_wick_mult: float = 2.0
    short_wick_frac: float = 0.15
    star_gap_frac: float = 0.3
    trend_lookback: int = 5
    trend_min_slope_frac: float = 0.0

    def __post_init__(self) -> None:
        for name in ("doji_body_frac", "long_wick_mult", "short_wick_frac", "star_gap_frac"):
            if getattr(self, name) <= 0:
                raise BadParams(f"{name} must be > 0")
        if self.trend_lookback < 1:
            raise BadParams("trend_lookback must be >= 1")
        if self.trend_min_slope_frac < 0:
            raise BadParams("trend_min_slope_frac must be >= 0")


def _body(c: Candle) -> float:
    return abs(c.close - c.open)


def _range(c: Candle) -> float:
    return c.high - c.low


def _upper_wick(c: Candle) -> float:
    return c.high - max(c.open, c.close)


def _lower_wick(c: Candle) -> float:
    return min(c.open, c.close) - c.low


def _bullish(c: Candle) -> bool:
    return c.close > c.open


def _bearish(c: Candle) -> bool:
    return c.close < c.open


def _within_body(x: float, c: Candle) -> bool:
    return min(c.open, c.close) <= x <= max(c.open, c.close)


def _contexts(series: Series, first_index: int, p: PatternRuleParams) -> tuple[bool, bool]:
    """(down_context, up_context) for a pattern starting at first_index."""
    ctx = series.candles[first_index - p.trend_lookback : first_index]
    mean_close = sum(c.close for c in ctx) / len(ctx)
    first_open = series.candles[first_index].open
    threshold = p.trend_min_slope_frac * first_open
    down = (mean_close - first_open) >= threshold
    up = (first_open - mean_close) >= threshold
    return down, up


def _matches(
    series: Series, end_index: int, kind: PatternKind, p: PatternRuleParams
) -> bool:
    span = _SPAN[kind]
    first = end_index - span + 1
    c = series.candles[end_index]

    if kind is PatternKind.DOJI:
        r = _range(c)
        return r == 0 or _body(c) <= p.doji_body_frac * r

    if kind in (PatternKind.HAMMER, PatternKind.INVERTED_HAMMER, PatternKind.SHOOTING_STAR):
        r = _range(c)
        if r == 0:
            return False
        down, up = _contexts(series, first, p)
        if kind is PatternKind.HAMMER:
            return (
                down
                and _body(c) > 0
                and _lower_wick(c) >= p.long_wick_mult * _body(c)
                and _upper_wick(c) <= p.short_wick_frac * r
            )
        shape = (
            _upper_wick(c) >= p.long_wick_mult * _body(c)
            and _lower_wick(c) <= p.short_wick_frac * r
        )
        return shape and (down if kind is PatternKind.INVERTED_HAMMER else up)

    if kind in (PatternKind.BULLISH_ENGULFING, PatternKind.BEARISH_ENGULFING):
        prev, cur = series.candles[first], c
        lo_p, hi_p = min(prev.open, prev.close), max(prev.open, prev.close)
        lo_c, hi_c = min(cur.open, cur.close), max(cur.open, cur.close)
        contains = lo_c < lo_p and hi_c > hi_p
        if kind is PatternKind.BULLISH_ENGULFING:
            return _bearish(prev) and _bullish(cur) and contains
        return _bullish(prev) and _bearish(cur) and contains

    c1, c2, c3 = series.candles[first], series.candles[first + 1], c

    if kind in (PatternKind.MORNING_STAR, PatternKind.EVENING_STAR):
        down, up = _contexts(series, first, p)
        small_middle = _body(c2) <= p.star_gap_frac * _body(c1)
        mid1 = (c1.open + c1.close) / 2.0
        if kind is PatternKind.MORNING_STAR:
            return down and _bearish(c1) and small_middle and _bullish(c3) and c3.close > mid1
        return up and _bullish(c1) and small_middle and _bearish(c3) and c3.close < mid1

    if kind is PatternKind.THREE_WHITE_SOLDIERS:
        return (
            _bullish(c1)
            and _bullish(c2)
            and _bullish(c3)
            and c2.close > c1.close
            and c3.close > c2.close
            and _within_body(c2.open, c1)
            and _within_body(c3.open, c2)
        )

    # three black crows
    return (
        _bearish(c1)
        and _bearish(c2)
        and _bearish(c3)
        and c2.close < c1.close
        and c3.close < c2.close
        and _within_body(c2.open, c1)
        and _within_body(c3.open, c2)
    )


def match_at(
    series: Series,
    end_index: int,
    kind: PatternKind,
    params: PatternRuleParams = PatternRuleParams(),
) -> PatternMatch | None:
    """Evaluate one kind's predicate at one index.

    The result depends only on the candles in
    ``[end_index - span + 1 - trend_lookback, end_index]``.
    """
    span = _SPAN[kind]
    if end_index >= len(series) or end_index < span - 1 + params.trend_lookback:
        raise OutOfRange(
            f"end_index {end_index} lacks span+context history "
            f"(span={span}, lookback={params.trend_lookback}, len={len(series)})"
        )
    if not _matches(series, end_index, kind, params):
        return None
    return PatternMatch(
        kind=kind, end_index=end_index, span=span, direction=_DIRECTION[kind]
    )


def detect_all(
    series: Series, params: PatternRuleParams = PatternRuleParams()
) -> list[PatternMatch]:
    """All matches of all kinds, ordered by (end_index, catalog order)."""
    out: list[PatternMatch] = []
    for end_index in range(len(series)):
        for kind in PatternKind:
            if end_index < _SPAN[kind] - 1 + params.trend_lookback:
                continue
            m = match_at(series, end_index, kind, params)
            if m is not None:
                out.append(m)
    return out
