"""Exception types raised across the package.

Everything derives from :class:`CandlekitError` so callers can catch one
base class at API boundaries (the experiment runner does exactly that to
isolate failing arms).
"""


class CandlekitError(Exception):
    """Base class for all candlekit errors."""


# --- market data ---

class MissingColumn(CandlekitError):
    """CSV header lacks a mapped column name."""


class BadRow(CandlekitError):
    """A CSV row is unparseable or violates candle invariants."""


class NonMonotonicDates(CandlekitError):
    """Series timestamps are not strictly increasing."""


class BadParams(CandlekitError):
    """Invalid generator or labeler parameters."""


class OutOfRange(CandlekitError):
    """Index arithmetic leaves the valid range of a series."""


# --- rasterization ---

class EmptyWindow(CandlekitError):
    """Rendering was asked for a window with no candles."""


class BadSpec(CandlekitError):
    """Render spec violates its own invariants."""


class SpanMismatch(CandlekitError):
    """Window passed to render_pattern does not carry the match's candles."""


class MalformedHeader(CandlekitError):
    """Byte stream is not a valid binary PPM header."""


class TruncatedPixelData(CandlekitError):
    """PPM pixel payload is shorter than the header claims."""


class CorruptCheckpoint(TruncatedPixelData):
    """Checkpoint stream that does not decode: short, over 64 dims, too big for numpy, or with bytes left over."""


# --- decomposition / inverse parsing ---

class NoCandlesFound(CandlekitError):
    """Segmentation found no occupied columns."""


class TooFewCandles(CandlekitError):
    """Chart has fewer candles than the requested sub-chart size."""


class UnknownColor(CandlekitError):
    """Image contains a pixel outside the renderer's palette."""


class DegenerateAxis(CandlekitError):
    """Flat price axis but the image is not a single-row chart."""


# --- neural substrate ---

class ShapeMismatch(CandlekitError):
    """Tensor shape incompatible with the layer or loss."""


class InvalidShape(CandlekitError):
    """Layer stack would produce a nonpositive spatial dimension."""


class NonFiniteValue(CandlekitError):
    """A NaN or Inf in a layer stack's input or output, a loaded weight, or a weight after a training step.

    numpy's overflow and invalid-value warnings are silenced where one of these checks follows."""


# --- training / evaluation ---

class EmptyPartition(CandlekitError):
    """A train/val/test split received zero samples."""


class LengthMismatch(CandlekitError):
    """Probability and label sequences differ in length."""


# --- experiment harness ---

class SourceNotFound(CandlekitError):
    """An input (CSV, manifest or checkpoint path, or member name) cannot be resolved."""


class EmptyDataset(CandlekitError):
    """Dataset build produced no admissible samples."""


class ManifestError(CandlekitError):
    """Experiment manifest is malformed."""
