import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candlekit import (
    Candle,
    ColumnMap,
    Series,
    SynthParams,
    parse_csv,
    synth_series,
    window,
    write_csv,
)
from candlekit import market_data
from candlekit.errors import (
    BadParams,
    BadRow,
    CandlekitError,
    MissingColumn,
    NonMonotonicDates,
    OutOfRange,
)

from candlekit.market_data import MAX_SYNTH_N
from conftest import LONG_INT, make_series, mutated

TOL = 1e-9


class TestCandle:
    def test_invariants_accept_flat_candle(self):
        Candle(timestamp=0, open=5.0, high=5.0, low=5.0, close=5.0)

    def test_rejects_low_above_body(self):
        with pytest.raises(BadRow):
            Candle(timestamp=0, open=100.0, high=102.0, low=103.0, close=101.0)

    def test_rejects_nonpositive_and_nonfinite(self):
        with pytest.raises(BadRow):
            Candle(timestamp=0, open=0.0, high=1.0, low=0.0, close=1.0)
        with pytest.raises(BadRow):
            Candle(timestamp=0, open=1.0, high=math.inf, low=1.0, close=1.0)

    def test_series_requires_increasing_timestamps(self):
        c = Candle(timestamp=3, open=1.0, high=2.0, low=1.0, close=2.0)
        with pytest.raises(NonMonotonicDates):
            Series(symbol="X", candles=(c, c))


class TestParseCsv:
    def test_verbatim_field_mapping(self):
        text = "Date,Open,High,Low,Close\n2017-01-03,100.0,102.0,99.0,101.0\n"
        s = parse_csv(text)
        assert len(s) == 1
        c = s[0]
        assert (c.open, c.high, c.low, c.close) == (100.0, 102.0, 99.0, 101.0)

    def test_strict_policy_rejects_bad_row(self):
        text = "Date,Open,High,Low,Close\n2017-01-03,100.0,102.0,103.0,101.0\n"
        with pytest.raises(BadRow):
            parse_csv(text, on_bad_row="strict")

    @pytest.mark.parametrize("policy", ["Strict", "skip", "", None])
    def test_unknown_policy_is_bad_params(self, policy):
        # checked before any row is read, so even a clean document fails
        text = "Date,Open,High,Low,Close\n2017-01-03,100.0,102.0,99.0,101.0\n"
        with pytest.raises(BadParams):
            parse_csv(text, on_bad_row=policy)

    def test_skip_policy_drops_bad_row(self, caplog):
        text = (
            "Date,Open,High,Low,Close\n"
            "2017-01-03,100.0,102.0,99.0,101.0\n"
            "2017-01-04,not-a-number,102.0,99.0,101.0\n"
            "2017-01-05,100.5,102.0,99.0,101.0\n"
        )
        with caplog.at_level("WARNING"):
            s = parse_csv(text)
        assert len(s) == 2
        assert "skipping bad row" in caplog.text

    def test_missing_column(self):
        with pytest.raises(MissingColumn):
            parse_csv("Date,Open,High,Low\n")

    def test_out_of_order_dates_always_raise(self):
        text = (
            "Date,Open,High,Low,Close\n"
            "2017-01-05,100,101,99,100\n"
            "2017-01-03,100,101,99,100\n"
        )
        with pytest.raises(NonMonotonicDates):
            parse_csv(text)

    def test_thirty_row_file(self):
        s = synth_series(3, 30)
        parsed = parse_csv(write_csv(s))
        assert len(parsed) == 30
        ts = [c.timestamp for c in parsed.candles]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_custom_column_map(self):
        text = "dt,o,max,min,c\n2020-02-02,1,3,0.5,2\n"
        cm = ColumnMap(date="dt", open="o", high="max", low="min", close="c")
        s = parse_csv(text, cm)
        assert s[0].high == 3.0 and s[0].low == 0.5

    @pytest.mark.parametrize("policy", ["strict", "skip_with_warning"])
    @pytest.mark.parametrize("row", ["2020-01-01,1,2,0.5\r1.5", "2020-01-01," + "9" * 200_000],
                             ids=["bare-cr", "over-long-field"])
    def test_unsplittable_text_is_bad_row(self, row, policy):
        with pytest.raises(BadRow):
            parse_csv(f"Date,Open,High,Low,Close\n{row}\n", on_bad_row=policy)

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.sampled_from(["", "Date,Open,High,Low,Close\n", "Date,Open,High,Low,Close\n1,"]),
        text=st.text(alphabet=st.sampled_from("0123456789.,-e\"\r\n \x00Dx:T"), max_size=80)
        | st.text(max_size=80),
        policy=st.sampled_from(["strict", "skip_with_warning"]),
    )
    def test_arbitrary_text_gives_series_or_candlekit_error(self, head, text, policy):
        try:
            s = parse_csv(head + text, on_bad_row=policy)
        except CandlekitError:
            return
        assert isinstance(s, Series)

    CSV = write_csv(synth_series(3, 4)).encode()

    @settings(max_examples=300, deadline=None)
    @given(data=mutated(CSV, chunks=(b",", b"\n", b"\r", b'"', b"\x00", b"nan", b"-1e400", LONG_INT),
                        spots=tuple(i + 1 for i, c in enumerate(CSV) if c in b",\n")))
    def test_mutated_text_gives_series_or_candlekit_error_when_strict(self, data):
        try:
            assert isinstance(parse_csv(data.decode("latin-1"), on_bad_row="strict"), Series)
        except CandlekitError:
            pass


class TestWriteCsv:
    def test_round_trip_identity_at_declared_precision(self, walk_series):
        back = parse_csv(write_csv(walk_series), symbol=walk_series.symbol)
        assert len(back) == len(walk_series)
        for a, b in zip(back.candles, walk_series.candles):
            assert a.timestamp == b.timestamp
            for f in ("open", "high", "low", "close"):
                assert abs(getattr(a, f) - getattr(b, f)) <= TOL

    def test_iso_dates_round_trip(self):
        from datetime import date

        ordinal = date(2017, 1, 3).toordinal()
        c = Candle(timestamp=ordinal, open=1.0, high=2.0, low=0.5, close=1.5)
        text = write_csv(Series(symbol="T", candles=(c,)))
        assert "2017-01-03" in text
        assert parse_csv(text).candles[0].timestamp == ordinal

    def test_trailing_zeros_trimmed(self):
        s = make_series([(100.0, 102.5, 99.25, 101.0)])
        body = write_csv(s).splitlines()[1]
        assert body == "0,100,102.5,99.25,101"


class TestSynthSeries:
    def test_identical_args_identical_series(self):
        a = synth_series(7, 100, SynthParams(volatility=0.02))
        b = synth_series(7, 100, SynthParams(volatility=0.02))
        assert a.candles == b.candles

    def test_different_seed_differs(self):
        a = synth_series(7, 100)
        b = synth_series(8, 100)
        assert a.candles != b.candles

    def test_degenerate_walk_is_flat(self):
        s = synth_series(5, 20, SynthParams(drift=0.0, volatility=0.0, wick_frac=0.0))
        for c in s.candles:
            assert c.open == c.high == c.low == c.close == 100.0

    def test_zero_vol_nonzero_drift_is_geometric_ladder(self):
        mu = 0.001
        s = synth_series(5, 10, SynthParams(drift=mu, volatility=0.0, wick_frac=0.0))
        for t, c in enumerate(s.candles):
            assert c.open == pytest.approx(100.0 * math.exp(mu * t), rel=1e-12)
            assert c.close == pytest.approx(100.0 * math.exp(mu * (t + 1)), rel=1e-12)
            assert c.high == max(c.open, c.close) and c.low == min(c.open, c.close)

    def test_bad_params(self):
        with pytest.raises(BadParams):
            synth_series(1, 0)
        with pytest.raises(BadParams):
            SynthParams(volatility=-0.1)
        with pytest.raises(BadParams):
            SynthParams(start_price=0.0)
        with pytest.raises(BadParams):
            SynthParams(wick_frac=1.0)

    def test_n_above_the_bound_is_rejected_before_any_candle(self, monkeypatch):
        def no_candles(*args, **kwargs):
            raise AssertionError("a candle was generated")

        monkeypatch.setattr(market_data, "Rng", no_candles)
        with pytest.raises(BadParams, match=str(MAX_SYNTH_N)):
            synth_series(1, MAX_SYNTH_N + 1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_invariants_hold_for_any_seed(self, seed):
        s = synth_series(seed, 50, SynthParams(volatility=0.05, wick_frac=0.03))
        assert len(s) == 50  # Candle/Series invariants checked at construction


class TestWindow:
    def test_full_slice(self):
        s = synth_series(2, 30)
        w = window(s, 29, 30)
        assert w.candles == s.candles and w.source_end_index == 29

    def test_insufficient_history(self):
        s = synth_series(2, 30)
        with pytest.raises(OutOfRange):
            window(s, 10, 30)

    def test_index_arithmetic(self):
        s = synth_series(2, 100)
        w = window(s, 50, 30)
        assert len(w) == 30
        assert w.candles == s.candles[21:51]

    def test_elements_are_parent_elements(self, walk_series):
        w = window(walk_series, 120, 30)
        for i, c in enumerate(w.candles):
            assert c is walk_series.candles[91 + i]
