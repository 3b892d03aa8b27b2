"""Model zoo: MiniCNN, two-stream CNN, the Decomposer, training, and metrics.

Every arm's model is a :class:`Model`, which :func:`build_model`,
:func:`train` and :func:`predict` handle alike. Each model class names the
:class:`TrainingSet` streams it reads, in ``reads``, and its ``predict`` (and
a tower model's ``forward``) takes a tuple of those arrays in that order;
:func:`batch_inputs` is the one place that fetches them. ``forward`` is for
training: it returns the backward caches that ``backward`` consumes.
``predict`` is for inference (:func:`predict`, the CAE's encoding) and keeps
none. Each class also declares
its layers once, in ``stacks(cfg)``: one (layer specs, input shape, seed tag)
entry per ``Sequential``, in checkpoint order. :func:`check_shapes` walks those
stacks without building weights, so a config can be checked before use.

MiniCNN is B blocks of [Conv3x3, ReLU, Conv3x3, ReLU, MaxPool2x2] with the
given channel widths, then Flatten -> Dense -> ReLU -> Dense(1) -> Sigmoid;
the single output is the predicted strength probability. The two-stream
model runs one such tower on the history chart and an independent tower on
the pattern crop, concatenates the flattened features, and fuses them with
the same dense head. The Decomposer is the subchart arm's one model: its
CAE compresses each 3-channel sub-chart to a latent vector (the CAE's head
mirrors back up with nearest-neighbor upsampling), and its CNN1D classifies
the chart's sequence of latent vectors with half the MiniCNN block count
(rounded up).

There is one split, and it is chronological: samples sorted by their series
index, train first, validation next, test last, so there is no look-ahead
leakage. Merged datasets split chronologically within each member and
concatenate the partitions.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import (
    BadParams,
    BadSpec,
    EmptyPartition,
    InvalidShape,
    LengthMismatch,
    NonFiniteValue,
    ShapeMismatch,
)
from .nn import (
    Conv1D,
    Conv2D,
    Dense,
    Flatten,
    MaxPool1D,
    MaxPool2D,
    NearestUpsample2D,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    adam_step,
    loss_bce,
    loss_mse,
    output_shape,
    sgd_step,
)
from .rng import Rng, derive_seed

# Rows per forward-only pass: at 256 a conv's patch matrix reached 8-30 MB and ran slower per image.
# At 32, W1's peak fell 5.3 MB more, but each pass took 340k-509k page faults against about 100k,
# and W1's samples/s fell from 3,846 to 3,322 (median of 4 pairs).
_PREDICT_CHUNK = 64


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "mini_cnn"
    input_shape: tuple[int, ...] = (3, 64, 64)
    block_widths: tuple[int, ...] = (8, 16, 32)
    fc_dim: int = 64
    pattern_shape: tuple[int, ...] = (3, 32, 32)
    pattern_widths: tuple[int, ...] = (8, 16)
    latent_dim: int = 32
    seq_len: int = 28  # subchart only: sub-charts per chart, each of input_shape
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise BadParams(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.block_widths or not self.pattern_widths:
            raise BadParams("block widths must be nonempty")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    train_frac: float = 0.7
    val_frac: float = 0.15

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise BadParams("epochs must be >= 0")
        if self.batch_size < 1:
            raise BadParams("batch_size must be >= 1")
        if not 0 < self.lr < math.inf:  # also false for NaN
            raise BadParams(f"lr must be finite and > 0, got {self.lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise BadParams(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if not (0 < self.train_frac < 1 and 0 < self.val_frac < 1):
            raise BadParams("split fractions must be in (0, 1)")
        if self.train_frac + self.val_frac >= 1:
            raise BadParams("train_frac + val_frac must be < 1")


@dataclass
class TrainingSet:
    """Labels, series order, member ids and input streams for one classification run: ``history``
    charts, ``pattern`` crops, (N, S, C, H, W) ``subcharts`` stacks, or a Decomposer's encoded
    (N, latent_dim, S) ``codes``. A model reads the streams its class names in ``reads``. Chart
    streams hold uint8 pixels, which :func:`model_input` scales one minibatch or chunk at a time."""

    labels: np.ndarray
    order: np.ndarray
    history: np.ndarray | None = None
    pattern: np.ndarray | None = None
    subcharts: np.ndarray | None = None
    codes: np.ndarray | None = None
    member: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.labels.shape[0])


def model_input(x: np.ndarray) -> np.ndarray:
    """uint8 pixels scaled to float32 in [0, 1], one rounded float32 division each; any other array
    as it is. The one place pixels are scaled; models call it per minibatch or chunk, not per stream."""
    return np.divide(x, np.float32(255), dtype=np.float32) if x.dtype == np.uint8 else x


def _tower_specs(in_shape: tuple[int, ...], widths: tuple[int, ...]) -> tuple[list, int]:
    """A conv tower's layers over ``in_shape`` and its flat output size."""
    specs: list = []
    c = _channels(in_shape)
    for w in widths:
        specs.extend(
            [Conv2D(c, w, 3, 1, 1), ReLU(), Conv2D(w, w, 3, 1, 1), ReLU(), MaxPool2D(2, 2)]
        )
        c = w
    specs.append(Flatten())
    return specs, _chain_shape(specs, in_shape)[0]


def _channels(shape: tuple[int, ...]) -> int:
    """A (C, H, W) image shape's C, read before any stack is chained; InvalidShape for another rank."""
    if len(shape) != 3:
        raise InvalidShape(f"an image input is (C, H, W), got {shape}")
    return shape[0]


def _chain_shape(specs: list, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    shape = tuple(in_shape)
    for spec in specs:
        shape = output_shape(spec, shape)
    return shape


class Model:
    """What every arm's model offers: ``predict`` (inference: output, no caches) over a tuple of
    one array per stream in ``reads``, and ``trainable``/``arrays``/``set_arrays`` over ``parts``
    in checkpoint order, as a ``Sequential``. A ``TowerModel`` also has ``forward`` (training: the
    same output and backward caches) and ``backward``; a ``Decomposer`` is trained through its
    parts. Each pass first gives its input to ``_checked_inputs``, the one check of that tuple."""

    reads: tuple[str, ...]

    def _checked_inputs(self, inputs) -> tuple[np.ndarray, ...]:
        """``inputs`` if it is a tuple of one array per stream in ``reads``; ShapeMismatch otherwise."""
        if not isinstance(inputs, tuple) or len(inputs) != len(self.reads):
            raise ShapeMismatch(f"{type(self).__name__} takes a tuple of {len(self.reads)} arrays")
        return inputs

    def trainable(self):
        return [p for part in self.parts for p in part.trainable()]

    arrays, set_arrays = Sequential.arrays, Sequential.set_arrays


class TowerModel(Model):
    """One ``Sequential`` per entry of the class's ``stacks(cfg)``: the first
    ones are towers, one per stream in ``reads``, and any further one is the head.

    A single-unit output comes back as ``(N,)``. Checkpoint order is the
    towers in turn, then the head.
    """

    def __init__(self, cfg: ModelConfig) -> None:
        self.cfg = cfg
        self.parts = tuple(Sequential(specs, shape, derive_seed(cfg.seed, tag))
                           for specs, shape, tag in self.stacks(cfg))
        n = len(self.reads)
        self.towers = self.parts[:n]
        self.head = self.parts[n] if len(self.parts) > n else None
        self.output_shape = self.parts[-1].output_shape

    def forward(self, inputs: tuple[np.ndarray, ...]):
        return self._run(inputs, keep=True)

    def predict(self, inputs: tuple[np.ndarray, ...]) -> np.ndarray:
        return self._run(inputs, keep=False)[0]

    def _run(self, inputs: tuple[np.ndarray, ...], keep: bool):
        """The one tower/head path: the output and one cache list per part, each None unless ``keep``.
        Each tower's input is made in the call to its layer loop, so only that loop holds it."""
        outs, caches = zip(*[tower.forward(model_input(x), _keep=keep)
                             for tower, x in zip(self.towers, self._checked_inputs(inputs))])
        y = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
        if self.head is not None:
            y, cache = self.head.forward(y, _keep=keep)
            caches += (cache,)
        return (y.reshape(-1) if self.output_shape == (1,) else y), list(caches)

    def backward(self, grad: np.ndarray, caches) -> None:
        grad = grad.reshape((-1,) + self.output_shape)
        if self.head is not None:
            grad = self.head.backward(grad, caches[-1])
        cuts = np.cumsum([t.output_shape[0] for t in self.towers])[:-1]
        for tower, g, cache in zip(self.towers, np.split(grad, cuts, axis=1), caches):
            tower.backward(g, cache, _input_grad=False)  # towers take data


def _dense_head(n_in: int, fc_dim: int) -> list:
    return [Dense(n_in, fc_dim), ReLU(), Dense(fc_dim, 1), Sigmoid()]


class MiniCNN(TowerModel):
    variant = "mini_cnn"
    reads = ("history",)

    @staticmethod
    def stacks(cfg: ModelConfig) -> list:
        tower, flat = _tower_specs(cfg.input_shape, cfg.block_widths)
        return [(tower + _dense_head(flat, cfg.fc_dim), cfg.input_shape, "mini_cnn")]


class TwoStream(TowerModel):
    variant = "two_stream"
    reads = ("history", "pattern")

    @staticmethod
    def stacks(cfg: ModelConfig) -> list:
        hist, n_hist = _tower_specs(cfg.input_shape, cfg.block_widths)
        pattern, n_pattern = _tower_specs(cfg.pattern_shape, cfg.pattern_widths)
        fused = n_hist + n_pattern
        return [
            (hist, cfg.input_shape, "two_stream.hist"),
            (pattern, cfg.pattern_shape, "two_stream.pattern"),
            (_dense_head(fused, cfg.fc_dim), (fused,), "two_stream.head"),
        ]


class CAEModel(TowerModel):
    reads = ("crops",)  # one sub-chart per row, fed by the Decomposer, not from a TrainingSet

    @staticmethod
    def stacks(cfg: ModelConfig) -> list:
        c = _channels(cfg.input_shape)
        w1, w2 = cfg.block_widths[0], cfg.block_widths[min(1, len(cfg.block_widths) - 1)]
        convs = [Conv2D(c, w1, 3, 1, 1), ReLU(), MaxPool2D(2, 2), Conv2D(w1, w2, 3, 1, 1), ReLU(), MaxPool2D(2, 2)]
        code = _chain_shape(convs, cfg.input_shape)
        enc = convs + [Flatten(), Dense(math.prod(code), cfg.latent_dim)]
        dec = [
            Dense(cfg.latent_dim, math.prod(code)), ReLU(), Reshape(code),
            NearestUpsample2D(2), Conv2D(w2, w1, 3, 1, 1), ReLU(),
            NearestUpsample2D(2), Conv2D(w1, c, 3, 1, 1), Sigmoid(),
        ]
        out = _chain_shape(dec, (cfg.latent_dim,))
        if out != cfg.input_shape:
            raise ShapeMismatch(
                f"decoder reproduces {out}, input is {cfg.input_shape}; height/width must be divisible by 4"
            )
        return [(enc, cfg.input_shape, "cae.enc"), (dec, (cfg.latent_dim,), "cae.dec")]

    def encode(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self.towers[0].predict(model_input(c)) for (c,) in _chunks((x,))], axis=0)


class CNN1DModel(TowerModel):
    variant = "cnn1d"
    reads = ("codes",)

    @staticmethod
    def stacks(cfg: ModelConfig) -> list:
        specs: list = []
        c = cfg.latent_dim
        for w in cfg.block_widths[: math.ceil(len(cfg.block_widths) / 2)]:
            specs.extend([Conv1D(c, w, 3, 1, 1), ReLU(), MaxPool1D(2, 2)])
            c = w
        specs.append(Flatten())
        flat = _chain_shape(specs, (cfg.latent_dim, cfg.seq_len))[0]
        return [(specs + [Dense(flat, 1), Sigmoid()], (cfg.latent_dim, cfg.seq_len), "cnn1d")]


class Decomposer(Model):
    """The subchart arm's model: a CAE encodes each sub-chart and a CNN1D classifies the codes.

    ``predict`` takes the raw (N, S, 3, h, w) sub-chart stacks; checkpoint
    order is the CAE's encoder, its decoder, then the CNN1D. It has no
    ``forward``: :func:`train` trains the CAE and then the CNN1D.
    """

    variant = "subchart"
    reads = ("subcharts",)

    @staticmethod
    def stacks(cfg: ModelConfig) -> list:
        return CAEModel.stacks(cfg) + CNN1DModel.stacks(cfg)

    def __init__(self, cfg: ModelConfig) -> None:
        self.cfg = cfg
        self.cae, self.cnn1d = CAEModel(cfg), CNN1DModel(cfg)
        self.parts = (self.cae, self.cnn1d)

    def encode(self, stacks: np.ndarray) -> np.ndarray:
        """Each sample's (latent_dim, S) sequence of sub-chart codes."""
        latent = self.cae.encode(stacks.reshape((-1,) + stacks.shape[2:]))
        return np.ascontiguousarray(latent.reshape(*stacks.shape[:2], -1).transpose(0, 2, 1))

    def predict(self, inputs: tuple[np.ndarray, ...]) -> np.ndarray:
        (stacks,) = self._checked_inputs(inputs)
        return self.cnn1d.predict((self.encode(stacks),))


def _chunks(arrays: tuple[np.ndarray, ...]):
    """Tuples of the same ``_PREDICT_CHUNK`` consecutive rows of every array."""
    for i in range(0, len(arrays[0]), _PREDICT_CHUNK):
        yield tuple(x[i : i + _PREDICT_CHUNK] for x in arrays)


MODELS = {cls.variant: cls for cls in (MiniCNN, TwoStream, Decomposer)}
VARIANTS = tuple(MODELS)


def build_model(cfg: ModelConfig) -> Model:
    return MODELS[cfg.variant](cfg)


def check_shapes(cfg: ModelConfig) -> None:
    """InvalidShape, naming the variant, unless :func:`build_model` can chain
    every stack of ``cfg``'s model; builds no weights."""
    try:
        for specs, shape, _tag in MODELS[cfg.variant].stacks(cfg):
            _chain_shape(specs, shape)
    except (BadSpec, InvalidShape, ShapeMismatch) as exc:
        raise InvalidShape(f"{cfg.variant} model: {exc}") from exc


# --- evaluation -----------------------------------------------------------


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    f1: float
    auc: float | None
    tp: int
    fp: int
    tn: int
    fn: int
    n: int
    threshold: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "f1": self.f1,
            "auc": self.auc,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
            "n": self.n,
            "threshold": self.threshold,
        }


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of finite ``values``; ties receive the mean rank of their group."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def evaluate(probs, labels, threshold: float = 0.5) -> EvalReport:
    """Accuracy, F1, and pair-counting AUC at the given threshold.

    AUC gives half credit to ties and is None when the labels hold a
    single class; the other metrics are still reported in that case.
    Positive prediction iff prob >= threshold; NonFiniteValue for a NaN or inf prob.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape or probs.ndim != 1 or len(probs) == 0:
        raise LengthMismatch(f"probs {probs.shape} vs labels {labels.shape}")
    if not np.isfinite(probs).all():
        raise NonFiniteValue("probabilities must be finite")
    pos = labels.astype(np.float64) == 1.0
    pred = probs >= threshold
    tp = int(np.sum(pred & pos))
    fp = int(np.sum(pred & ~pos))
    fn = int(np.sum(~pred & pos))
    tn = int(np.sum(~pred & ~pos))
    n = len(probs)
    accuracy = (tp + tn) / n
    f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) > 0 else 0.0

    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        auc = None
    else:
        ranks = _average_ranks(probs)
        auc = float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
    return EvalReport(
        accuracy=accuracy, f1=f1, auc=auc, tp=tp, fp=fp, tn=tn, fn=fn, n=n, threshold=threshold
    )


def batch_inputs(model: Model, ts: TrainingSet, idx: np.ndarray | slice) -> tuple[np.ndarray, ...]:
    """The rows ``idx`` of each stream ``model`` reads; ShapeMismatch naming those ``ts`` lacks."""
    if missing := [name for name in model.reads if getattr(ts, name, None) is None]:
        raise ShapeMismatch(f"{type(model).__name__} reads streams the training set lacks: {missing}")
    return tuple(getattr(ts, name)[idx] for name in model.reads)


def predict(model: Model, inputs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Deterministic inference pass over a tuple of input streams, ``_PREDICT_CHUNK`` rows at a
    time; probabilities in (0, 1)."""
    return np.concatenate([model.predict(c) for c in _chunks(inputs)], axis=0)


# --- splits and training ---------------------------------------------------


def split_indices(
    order: np.ndarray,
    member: np.ndarray | None,
    tc: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train/val/test index arrays, the one split: within each member, in ``order`` (ties in row
    order), the first ``train_frac`` train, the next ``val_frac`` validate and the rest test."""
    n = len(order)
    members = member if member is not None else np.zeros(n, dtype=np.int64)
    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    for m in np.unique(members):
        idx = np.nonzero(members == m)[0]
        idx = idx[np.argsort(order[idx], kind="stable")]
        k = len(idx)
        n_train = int(k * tc.train_frac)
        n_val = int(k * tc.val_frac)
        train.extend(idx[:n_train])
        val.extend(idx[n_train : n_train + n_val])
        test.extend(idx[n_train + n_val :])
    if not train or not val or not test:
        raise EmptyPartition(
            f"split of {n} samples left an empty partition "
            f"({len(train)}/{len(val)}/{len(test)})"
        )
    return np.asarray(train), np.asarray(val), np.asarray(test)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float | None
    val_accuracy: float
    val_f1: float
    val_auc: float | None


@dataclass
class TrainReport:
    entries: list[EpochStats] = field(default_factory=list)
    n_train: int = 0
    n_val: int = 0
    n_test: int = 0
    cae_mse: list[float] = field(default_factory=list)  # a Decomposer's CAE record (see _train_cae)

    def to_json(self) -> str:
        """Every field, with ``entries`` written as ``epochs``."""
        doc = asdict(self)
        doc["epochs"] = doc.pop("entries")
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def best_val_accuracy(self) -> float:
        return max(e.val_accuracy for e in self.entries)

    def final_val_accuracy(self) -> float:
        return self.entries[-1].val_accuracy


def _fit(model: TowerModel, streams: tuple[np.ndarray, ...], targets: np.ndarray, rows, loss,
         tc: TrainConfig, tag: str):
    """Mini-batch training on ``rows`` of ``streams``; yields each epoch's mean minibatch loss.
    NonFiniteValue once a step leaves a NaN or inf weight, as a NaN or inf gradient or an
    update that overflows does under Adam and SGD alike; numpy's warnings for these are
    silenced in the backward pass and the step, which that check follows."""
    shuffle_rng = Rng(derive_seed(tc.seed, tag))
    step = adam_step if tc.optimizer == "adam" else sgd_step
    params = model.trainable()
    for _epoch in range(tc.epochs):
        idx = list(rows)
        shuffle_rng.shuffle(idx)
        losses = []
        for start in range(0, len(idx), tc.batch_size):
            batch = np.asarray(idx[start : start + tc.batch_size])
            out, caches = model.forward(tuple(s[batch] for s in streams))
            value, grad = loss(out, model_input(targets[batch]).astype(out.dtype, copy=False))
            with np.errstate(over="ignore", invalid="ignore"):  # the weight check follows
                model.backward(grad, caches)
                step(params, tc.lr)
            if not all(np.isfinite(p.flat).all() for p in params):
                raise NonFiniteValue("non-finite weights after a training step")
            losses.append(value)
        yield float(np.mean(losses))


def train(model: Model, ts: TrainingSet, tc: TrainConfig) -> TrainReport:
    """Mini-batch BCE training; epoch 0 records the untrained val metrics.

    A Decomposer's CNN1D trains on the sequences :func:`_train_cae` encodes."""
    if isinstance(model, Decomposer):
        encoded, cae_mse = _train_cae(model, ts, tc)
        return replace(train(model.cnn1d, encoded, tc), cae_mse=cae_mse)
    tr, va, te = split_indices(ts.order, ts.member, tc)
    report = TrainReport(n_train=len(tr), n_val=len(va), n_test=len(te))
    streams = batch_inputs(model, ts, slice(None))
    losses = _fit(model, streams, ts.labels, tr, loss_bce, tc, "batch-shuffle")
    for epoch, loss in enumerate(chain([None], losses)):
        rep = evaluate(predict(model, batch_inputs(model, ts, va)), ts.labels[va])
        report.entries.append(EpochStats(epoch, loss, rep.accuracy, rep.f1, rep.auc))
    return report


def _recon_mse(cae: CAEModel, latent: np.ndarray, crops: np.ndarray, rows: np.ndarray) -> float:
    """MSE of ``cae.head``'s decoding of ``latent`` against ``crops[rows]``, row for row."""
    total = 0.0
    for z, r in _chunks((latent, rows)):
        total += float(np.sum((cae.head.predict(z) - model_input(crops[r])) ** 2))
    return total / (len(rows) * crops[0].size)


def _train_cae(model: Decomposer, ts: TrainingSet, tc: TrainConfig) -> tuple[TrainingSet, list[float]]:
    """A Decomposer's CAE trained with MSE on the training partition's sub-charts.

    Returns every sample's encoded (latent_dim, S) sequence and the MSE record:
    over all training sub-charts before training and after the last epoch (from
    that one encode of every sample), each epoch's mean minibatch MSE between.
    """
    tr, _va, _te = split_indices(ts.order, ts.member, tc)
    cae, (stacks,) = model.cae, batch_inputs(model, ts, slice(None))
    crops = stacks.reshape((-1,) + stacks.shape[2:])
    rows = np.arange(len(crops)).reshape(stacks.shape[:2])[tr].ravel()  # training samples' crops
    latent = np.concatenate([cae.encode(crops[r]) for (r,) in _chunks((rows,))])
    epoch_mse = [_recon_mse(cae, latent, crops, rows)]
    epoch_mse += _fit(cae, (crops,), crops, rows, loss_mse, tc, "cae-shuffle")

    encoded = TrainingSet(codes=model.encode(stacks), labels=ts.labels, order=ts.order, member=ts.member)
    if tc.epochs:
        latent = encoded.codes[tr].transpose(0, 2, 1).reshape(-1, cae.cfg.latent_dim)
        epoch_mse[-1] = _recon_mse(cae, latent, crops, rows)
    return encoded, epoch_mse
