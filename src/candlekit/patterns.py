"""Rule-based candlestick pattern detection.

Ten classic formations with explicit, parameterized predicates. Per-candle
quantities: body = |close - open|, range = high - low, upper wick =
high - max(open, close), lower wick = min(open, close) - low; a candle's
colour is +1 (bullish) if close > open, -1 (bearish) if close < open, else 0.

The catalog is one table, ``_CATALOG``: each kind's span, direction and rule.
A rule gets the direction's sign (+1 bullish, -1 bearish, 0 neutral), and each
bullish/bearish pair shares one rule that the sign turns to its side:
engulfing, morning/evening star, three white soldiers/black crows, and
inverted hammer/shooting star.

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


@dataclass(frozen=True)
class PatternMatch:
    kind: PatternKind
    end_index: int
    span: int
    direction: Direction

    def to_dict(self) -> dict:
        """Fields by name, enums as their values: a ``detect`` line, and part of a dataset row."""
        return {k: getattr(v, "value", v) for k, v in vars(self).items()}


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


def _cmp(a: float, b: float) -> int:
    """+1 if a > b, -1 if a < b, else 0; a candle's colour is ``_cmp(close, open)``."""
    return (a > b) - (a < b)


def _body(c: Candle) -> float:
    return abs(c.close - c.open)


def _trend(series: Series, first: int, p: PatternRuleParams, down: bool) -> bool:
    """Down-context (up-context if not ``down``) for a pattern starting at ``first``."""
    ctx = series.candles[first - p.trend_lookback : first]
    mean_close = sum(c.close for c in ctx) / len(ctx)
    first_open = series.candles[first].open
    rise = mean_close - first_open if down else first_open - mean_close
    return rise >= p.trend_min_slope_frac * first_open


def _doji(s: Series, i: int, p: PatternRuleParams, sign: int) -> bool:
    c = s.candles[i]
    r = c.high - c.low
    return r == 0 or _body(c) <= p.doji_body_frac * r


def _hammer(s: Series, i: int, p: PatternRuleParams, sign: int) -> bool:
    # body > 0 also rules out a zero range; the inverted hammer has no such test
    c = s.candles[i]
    return (_body(c) > 0
            and min(c.open, c.close) - c.low >= p.long_wick_mult * _body(c)
            and c.high - max(c.open, c.close) <= p.short_wick_frac * (c.high - c.low)
            and _trend(s, i, p, down=True))


def _inverted_hammer(s: Series, i: int, p: PatternRuleParams, sign: int) -> bool:
    """After a down-trend an inverted hammer, after an up-trend a shooting star."""
    c = s.candles[i]
    r = c.high - c.low
    return (r > 0
            and c.high - max(c.open, c.close) >= p.long_wick_mult * _body(c)
            and min(c.open, c.close) - c.low <= p.short_wick_frac * r
            and _trend(s, i, p, down=sign > 0))


def _engulfing(s: Series, i: int, p: PatternRuleParams, sign: int) -> bool:
    prev, cur = s.candles[i], s.candles[i + 1]
    return (_cmp(prev.close, prev.open) == -sign
            and _cmp(cur.close, cur.open) == sign
            and min(cur.open, cur.close) < min(prev.open, prev.close)
            and max(cur.open, cur.close) > max(prev.open, prev.close))


def _star(s: Series, i: int, p: PatternRuleParams, sign: int) -> bool:
    c1, c2, c3 = s.candles[i : i + 3]
    return (_trend(s, i, p, down=sign > 0)
            and _cmp(c1.close, c1.open) == -sign
            and _body(c2) <= p.star_gap_frac * _body(c1)
            and _cmp(c3.close, c3.open) == sign
            and _cmp(c3.close, (c1.open + c1.close) / 2.0) == sign)


def _three_soldiers(s: Series, i: int, p: PatternRuleParams, sign: int) -> bool:
    """Three candles of the sign's colour, each closing past the last and opening inside its body."""
    cs = s.candles[i : i + 3]
    return all(_cmp(c.close, c.open) == sign for c in cs) and all(
        _cmp(b.close, a.close) == sign and min(a.open, a.close) <= b.open <= max(a.open, a.close)
        for a, b in zip(cs, cs[1:]))


_SIGN = {Direction.BULLISH: 1, Direction.BEARISH: -1, Direction.NEUTRAL: 0}

# kind: (span, direction, rule); a rule takes (series, first index, params, sign)
_CATALOG = {
    PatternKind.DOJI: (1, Direction.NEUTRAL, _doji),
    PatternKind.HAMMER: (1, Direction.BULLISH, _hammer),
    PatternKind.INVERTED_HAMMER: (1, Direction.BULLISH, _inverted_hammer),
    PatternKind.SHOOTING_STAR: (1, Direction.BEARISH, _inverted_hammer),
    PatternKind.BULLISH_ENGULFING: (2, Direction.BULLISH, _engulfing),
    PatternKind.BEARISH_ENGULFING: (2, Direction.BEARISH, _engulfing),
    PatternKind.MORNING_STAR: (3, Direction.BULLISH, _star),
    PatternKind.EVENING_STAR: (3, Direction.BEARISH, _star),
    PatternKind.THREE_WHITE_SOLDIERS: (3, Direction.BULLISH, _three_soldiers),
    PatternKind.THREE_BLACK_CROWS: (3, Direction.BEARISH, _three_soldiers),
}


def span_of(kind: PatternKind) -> int:
    return _CATALOG[kind][0]


def match_at(series: Series, end_index: int, kind: PatternKind,
             params: PatternRuleParams = PatternRuleParams()) -> PatternMatch | None:
    """Evaluate one kind's predicate at one index.

    The result depends only on the candles in
    ``[end_index - span + 1 - trend_lookback, end_index]``.
    """
    span, direction, rule = _CATALOG[kind]
    if end_index >= len(series) or end_index < span - 1 + params.trend_lookback:
        raise OutOfRange(f"end_index {end_index} lacks span+context history "
                         f"(span={span}, lookback={params.trend_lookback}, len={len(series)})")
    if rule(series, end_index - span + 1, params, _SIGN[direction]):
        return PatternMatch(kind=kind, end_index=end_index, span=span, direction=direction)
    return None


def detect_all(series: Series, params: PatternRuleParams = PatternRuleParams()) -> list[PatternMatch]:
    """All matches of all kinds, ordered by (end_index, catalog order)."""
    found = (match_at(series, end_index, kind, params)
             for end_index in range(len(series)) for kind in PatternKind
             if end_index >= span_of(kind) - 1 + params.trend_lookback)
    return [m for m in found if m is not None]
