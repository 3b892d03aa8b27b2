"""candlekit: candlestick charts as data.

Rule-based pattern detection over OHLC series, deterministic chart
rasterization with exact inverse parsing, and small numpy-backed CNNs
(plain, two-stream, and the autoencoder+1-D Decomposer) for trend-strength
classification, plus a seeded experiment harness that makes every output
byte a function of one master seed.
"""

__version__ = "0.1.0"

from .decompose import (
    CandleExtent,
    ParsedCandle,
    ParsedDirection,
    inverse_parse,
    pixel_quantum,
    segment_columns,
    subcharts,
)
from .labeling import (
    LabeledSample,
    LabelerParams,
    StrengthLabel,
    atr,
    build_samples,
    trend_strength,
    true_range,
)
from .market_data import (
    Candle,
    CandleWindow,
    ColumnMap,
    Series,
    SynthParams,
    parse_csv,
    synth_series,
    window,
    write_csv,
)
from .models import (
    Decomposer,
    EvalReport,
    MiniCNN,
    Model,
    ModelConfig,
    TrainConfig,
    TrainingSet,
    TrainReport,
    TwoStream,
    build_model,
    evaluate,
    predict,
    split_indices,
    train,
)
from .patterns import (
    Direction,
    PatternKind,
    PatternMatch,
    PatternRuleParams,
    detect_all,
    match_at,
    span_of,
)
from .raster import (
    RasterImage,
    RenderSpec,
    read_ppm,
    render_pattern,
    render_window,
    resize_nearest,
    write_ppm,
)

__all__ = [
    "Candle",
    "CandleExtent",
    "CandleWindow",
    "ColumnMap",
    "Decomposer",
    "Direction",
    "EvalReport",
    "LabeledSample",
    "LabelerParams",
    "MiniCNN",
    "Model",
    "ModelConfig",
    "ParsedCandle",
    "ParsedDirection",
    "PatternKind",
    "PatternMatch",
    "PatternRuleParams",
    "RasterImage",
    "RenderSpec",
    "Series",
    "StrengthLabel",
    "SynthParams",
    "TrainConfig",
    "TrainReport",
    "TrainingSet",
    "TwoStream",
    "atr",
    "build_model",
    "build_samples",
    "detect_all",
    "evaluate",
    "inverse_parse",
    "match_at",
    "parse_csv",
    "pixel_quantum",
    "predict",
    "read_ppm",
    "render_pattern",
    "render_window",
    "resize_nearest",
    "segment_columns",
    "span_of",
    "split_indices",
    "subcharts",
    "synth_series",
    "train",
    "trend_strength",
    "true_range",
    "window",
    "write_csv",
    "write_ppm",
]
