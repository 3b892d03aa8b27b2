import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlekit import (
    Candle,
    PatternKind,
    PatternRuleParams,
    Series,
    detect_all,
    match_at,
    span_of,
    synth_series,
)
from candlekit.errors import BadParams, OutOfRange
from candlekit.patterns import Direction

from conftest import make_series
from oracles import oracle_detect_all

FLAT = (100.0, 100.0, 100.0, 100.0)


def ctx(n, level=100.0):
    """n flat context candles at the given price level."""
    return [(level, level, level, level)] * n


class TestSingleCandleRules:
    def test_doji_hand_example(self):
        # body/range = 0.02/2.0 = 0.01 <= 0.05
        s = make_series(ctx(5) + [(100.0, 101.0, 99.0, 100.02)])
        m = match_at(s, 5, PatternKind.DOJI)
        assert m is not None and m.direction is Direction.NEUTRAL and m.span == 1

    def test_doji_rejects_fat_body(self):
        s = make_series(ctx(5) + [(100.0, 101.0, 99.0, 100.5)])
        assert match_at(s, 5, PatternKind.DOJI) is None

    def test_doji_matches_zero_range(self):
        s = make_series(ctx(6))
        assert match_at(s, 5, PatternKind.DOJI) is not None

    def test_hammer_needs_down_context_and_long_lower_wick(self):
        # context closes at 110 > first open 100 -> down-context
        hammer = (100.0, 100.55, 96.0, 100.5)  # body 0.5, lower wick 4.0, upper 0.05
        s = make_series(ctx(5, 110.0) + [hammer])
        m = match_at(s, 5, PatternKind.HAMMER)
        assert m is not None and m.direction is Direction.BULLISH
        # same candle after an up-context does not match
        s_up = make_series(ctx(5, 90.0) + [hammer])
        assert match_at(s_up, 5, PatternKind.HAMMER) is None

    def test_wick_rules_reject_zero_range(self):
        s = make_series(ctx(6, 110.0))
        for kind in (PatternKind.HAMMER, PatternKind.INVERTED_HAMMER, PatternKind.SHOOTING_STAR):
            assert match_at(s, 5, kind) is None

    def test_shooting_star_mirrors_inverted_hammer(self):
        shape = (100.0, 104.0, 99.95, 100.5)  # upper wick 3.5 >= 2*0.5, lower 0.05
        down = make_series(ctx(5, 110.0) + [shape])
        up = make_series(ctx(5, 90.0) + [shape])
        assert match_at(down, 5, PatternKind.INVERTED_HAMMER) is not None
        assert match_at(down, 5, PatternKind.SHOOTING_STAR) is None
        assert match_at(up, 5, PatternKind.SHOOTING_STAR) is not None
        assert match_at(up, 5, PatternKind.INVERTED_HAMMER) is None


class TestMultiCandleRules:
    def test_bullish_engulfing_hand_example(self):
        s = make_series(ctx(5, 110.0) + [(105.0, 105.5, 99.5, 100.0), (99.9, 106.5, 99.8, 106.0)])
        m = match_at(s, 6, PatternKind.BULLISH_ENGULFING)
        assert m is not None and m.direction is Direction.BULLISH and m.span == 2

    def test_engulfing_requires_strict_containment(self):
        # equal body ends fail the strict comparison
        s = make_series(ctx(5) + [(105.0, 105.5, 99.5, 100.0), (100.0, 105.5, 99.5, 105.0)])
        assert match_at(s, 6, PatternKind.BULLISH_ENGULFING) is None

    def test_engulfing_never_on_constant(self, constant_series):
        assert match_at(constant_series, 10, PatternKind.BULLISH_ENGULFING) is None
        assert match_at(constant_series, 10, PatternKind.BEARISH_ENGULFING) is None

    def test_morning_star(self):
        rows = ctx(5, 110.0) + [
            (104.0, 104.5, 99.5, 100.0),   # bearish, body 4
            (100.1, 100.6, 99.9, 100.4),   # small body 0.3 <= 0.3*4
            (100.5, 106.5, 100.4, 106.0),  # bullish close above midpoint 102
        ]
        m = match_at(make_series(rows), 7, PatternKind.MORNING_STAR)
        assert m is not None and m.direction is Direction.BULLISH and m.span == 3

    def test_evening_star_mirror(self):
        rows = ctx(5, 90.0) + [
            (100.0, 104.5, 99.5, 104.0),
            (104.1, 104.6, 103.9, 104.3),
            (104.0, 104.1, 97.0, 97.5),
        ]
        m = match_at(make_series(rows), 7, PatternKind.EVENING_STAR)
        assert m is not None and m.direction is Direction.BEARISH

    def test_three_white_soldiers(self):
        rows = ctx(5) + [
            (100.0, 102.2, 99.9, 102.0),
            (101.0, 103.2, 100.9, 103.0),
            (102.0, 104.2, 101.9, 104.0),
        ]
        m = match_at(make_series(rows), 7, PatternKind.THREE_WHITE_SOLDIERS)
        assert m is not None and m.direction is Direction.BULLISH

    def test_three_black_crows(self):
        rows = ctx(5) + [
            (104.0, 104.2, 101.8, 102.0),
            (103.0, 103.2, 100.8, 101.0),
            (102.0, 102.2, 99.8, 100.0),
        ]
        m = match_at(make_series(rows), 7, PatternKind.THREE_BLACK_CROWS)
        assert m is not None and m.direction is Direction.BEARISH

    def test_soldiers_reject_open_gap_above_body(self):
        rows = ctx(5) + [
            (100.0, 102.2, 99.9, 102.0),
            (102.5, 103.2, 102.4, 103.0),  # opens above previous body
            (102.9, 104.2, 102.8, 104.0),
        ]
        assert match_at(make_series(rows), 7, PatternKind.THREE_WHITE_SOLDIERS) is None


class TestDetectAll:
    def test_out_of_range_context(self):
        s = make_series(ctx(6))
        with pytest.raises(OutOfRange):
            match_at(s, 3, PatternKind.DOJI)

    def test_constant_series_only_dojis(self):
        s = make_series(ctx(40))
        matches = detect_all(s)
        assert [m.end_index for m in matches] == list(range(5, 40))
        assert all(m.kind is PatternKind.DOJI for m in matches)

    def test_empty_series(self):
        assert detect_all(Series(symbol="E", candles=())) == []

    def test_ordering_by_index_then_catalog(self, walk_series):
        matches = detect_all(walk_series)
        kind_pos = {k: i for i, k in enumerate(PatternKind)}
        keys = [(m.end_index, kind_pos[m.kind]) for m in matches]
        assert keys == sorted(keys)

    def test_scale_invariance_c1000(self, walk_series):
        scaled = Series(
            symbol="S",
            candles=tuple(
                Candle(c.timestamp, c.open * 1000, c.high * 1000, c.low * 1000, c.close * 1000)
                for c in walk_series.candles
            ),
        )
        a = [(m.end_index, m.kind) for m in detect_all(walk_series)]
        b = [(m.end_index, m.kind) for m in detect_all(scaled)]
        assert a == b

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        power=st.integers(min_value=-3, max_value=10),
    )
    def test_scale_invariance_powers_of_two(self, seed, power):
        base = synth_series(seed, 40)
        c = 2.0**power
        scaled = Series(
            symbol="S",
            candles=tuple(
                Candle(x.timestamp, x.open * c, x.high * c, x.low * c, x.close * c)
                for x in base.candles
            ),
        )
        assert [(m.end_index, m.kind) for m in detect_all(base)] == [
            (m.end_index, m.kind) for m in detect_all(scaled)
        ]

    def test_time_shift_equivariance(self, walk_series):
        k = 7
        prefix = synth_series(99, k).candles
        shifted = Series(
            symbol="S",
            candles=tuple(
                Candle(i, c.open, c.high, c.low, c.close)
                for i, c in enumerate(prefix + walk_series.candles)
            ),
        )
        base = [(m.end_index + k, m.kind) for m in detect_all(walk_series)]
        moved = [
            (m.end_index, m.kind)
            for m in detect_all(shifted)
            if m.end_index >= k + m.span - 1 + 5
        ]
        assert moved == base

    def test_locality(self, walk_series):
        params = PatternRuleParams()
        kind = PatternKind.DOJI
        end = next(m.end_index for m in detect_all(walk_series) if m.kind is kind)
        mutated = list(walk_series.candles)
        far = end - span_of(kind) - params.trend_lookback - 2
        mutated[far] = Candle(mutated[far].timestamp, 1.0, 2.0, 0.5, 1.5)
        s2 = Series(symbol="M", candles=tuple(mutated))
        assert match_at(s2, end, kind, params) is not None

    def test_determinism(self, walk_series):
        assert detect_all(walk_series) == detect_all(walk_series)

    def test_oracle_equivalence_on_random_series(self):
        params = PatternRuleParams()
        for seed in range(10):
            s = synth_series(seed, 120)
            tuples = [(c.open, c.high, c.low, c.close) for c in s.candles]
            got = [(m.end_index, m.kind.value) for m in detect_all(s, params)]
            assert got == oracle_detect_all(tuples, params)

    @settings(max_examples=150, deadline=None)
    @given(
        bodies=st.lists(
            st.tuples(
                st.integers(1, 6), st.integers(1, 6), st.integers(0, 2), st.integers(0, 2)
            ),
            min_size=8,
            max_size=12,
        ),
        params=st.sampled_from(
            [
                PatternRuleParams(),
                PatternRuleParams(
                    trend_lookback=2, star_gap_frac=0.5, trend_min_slope_frac=0.1
                ),
            ]
        ),
    )
    def test_oracle_equivalence_on_gapped_series(self, bodies, params):
        # synth series open every candle at the previous close; these open
        # anywhere, so engulfing and the three-candle rules meet gapped opens
        # and ties on small integer prices
        tuples = [
            (float(o), float(max(o, c) + up), float(max(min(o, c) - down, 1)), float(c))
            for o, c, up, down in bodies
        ]
        got = [(m.end_index, m.kind.value) for m in detect_all(make_series(tuples), params)]
        assert got == oracle_detect_all(tuples, params)


class TestParams:
    def test_ratio_validation(self):
        with pytest.raises(BadParams):
            PatternRuleParams(doji_body_frac=0.0)
        with pytest.raises(BadParams):
            PatternRuleParams(trend_lookback=0)
        PatternRuleParams(trend_min_slope_frac=0.0)  # zero slope allowed

    def test_slope_threshold_gates_context(self):
        hammer = (100.0, 100.55, 96.0, 100.5)
        s = make_series(ctx(5, 100.5) + [hammer])
        assert match_at(s, 5, PatternKind.HAMMER) is not None
        strict = PatternRuleParams(trend_min_slope_frac=0.02)
        assert match_at(s, 5, PatternKind.HAMMER, strict) is None
