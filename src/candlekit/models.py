"""Model zoo: MiniCNN, two-stream CNN, CAE, CNN1D, training, and metrics.

Every model is a :class:`Model`: one ``Sequential`` tower per input stream,
whose flat outputs are concatenated and fed to an optional head. ``forward``
takes a tuple of arrays, one per tower.

MiniCNN is B blocks of [Conv3x3, ReLU, Conv3x3, ReLU, MaxPool2x2] with the
given channel widths, then Flatten -> Dense -> ReLU -> Dense(1) -> Sigmoid;
the single output is the predicted strength probability. The two-stream
model runs one such tower on the history chart and an independent tower on
the pattern crop, concatenates the flattened features, and fuses them with
the same dense head. The CAE's tower compresses 3-channel sub-chart images
to a latent vector and its head mirrors back up with nearest-neighbor
upsampling; CNN1D classifies the per-window sequence of latent vectors and
uses half the MiniCNN block count (rounded up).

Splits are chronological by default: samples sorted by their series index,
train first, validation next, test last, so there is no look-ahead
leakage. Merged datasets split chronologically within each member and
concatenate the partitions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import (
    BadParams,
    EmptyPartition,
    LengthMismatch,
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

VARIANTS = ("mini_cnn", "two_stream", "cae", "cnn1d")

_PREDICT_CHUNK = 256


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "mini_cnn"
    input_shape: tuple[int, ...] = (3, 64, 64)
    block_widths: tuple[int, ...] = (8, 16, 32)
    fc_dim: int = 64
    pattern_shape: tuple[int, ...] = (3, 32, 32)
    pattern_widths: tuple[int, ...] = (8, 16)
    latent_dim: int = 32
    seq_len: int = 28
    seed: int = 0

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise BadParams(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not self.block_widths or not self.pattern_widths:
            raise BadParams("block widths must be nonempty")
        if self.fc_dim < 1 or self.latent_dim < 1 or self.seq_len < 1:
            raise BadParams("fc_dim, latent_dim, seq_len must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    train_frac: float = 0.7
    val_frac: float = 0.15
    chronological: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise BadParams("epochs must be >= 0")
        if self.batch_size < 1:
            raise BadParams("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise BadParams(f"optimizer must be adam or sgd, got {self.optimizer!r}")
        if not (0 < self.train_frac < 1 and 0 < self.val_frac < 1):
            raise BadParams("split fractions must be in (0, 1)")
        if self.train_frac + self.val_frac >= 1:
            raise BadParams("train_frac + val_frac must be < 1")


@dataclass
class TrainingSet:
    """Arrays for one classification run; ``pattern`` only for two-stream."""

    inputs: np.ndarray
    labels: np.ndarray
    order: np.ndarray
    pattern: np.ndarray | None = None
    member: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.inputs.shape[0])


@dataclass
class SubchartDataset:
    """Per-sample stacks of sub-chart images for the decompose pipeline."""

    subcharts: np.ndarray  # (N, S, C, H, W)
    labels: np.ndarray
    order: np.ndarray
    member: np.ndarray | None = None


def _tower_specs(in_ch: int, widths: tuple[int, ...]) -> list:
    specs: list = []
    c = in_ch
    for w in widths:
        specs.extend(
            [Conv2D(c, w, 3, 1, 1), ReLU(), Conv2D(w, w, 3, 1, 1), ReLU(), MaxPool2D(2, 2)]
        )
        c = w
    specs.append(Flatten())
    return specs


def _chain_shape(specs: list, in_shape: tuple[int, ...]) -> tuple[int, ...]:
    shape = tuple(in_shape)
    for spec in specs:
        shape = output_shape(spec, shape)
    return shape


class Model:
    """One ``Sequential`` tower per input stream, plus an optional head.

    A single-unit output comes back as ``(N,)``. Checkpoint order is the
    towers in turn, then the head.
    """

    def __init__(self, cfg: ModelConfig, towers: tuple[Sequential, ...],
                 head: Sequential | None = None) -> None:
        self.cfg = cfg
        self.towers = towers
        self.head = head
        self.parts = towers if head is None else towers + (head,)
        self.output_shape = self.parts[-1].output_shape

    def forward(self, inputs: tuple[np.ndarray, ...]):
        if not isinstance(inputs, tuple) or len(inputs) != len(self.towers):
            raise ShapeMismatch(f"{type(self).__name__} takes a tuple of {len(self.towers)} arrays")
        outs, caches = [], []
        for tower, x in zip(self.towers, inputs):
            y, cache = tower.forward(x)
            outs.append(y)
            caches.append(cache)
        y = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
        if self.head is not None:
            y, cache = self.head.forward(y)
            caches.append(cache)
        return (y.reshape(-1) if self.output_shape == (1,) else y), caches

    def backward(self, grad: np.ndarray, caches) -> None:
        grad = grad.reshape((-1,) + self.output_shape)
        if self.head is not None:
            grad = self.head.backward(grad, caches[-1])
        cuts = np.cumsum([t.output_shape[0] for t in self.towers])[:-1]
        for tower, g, cache in zip(self.towers, np.split(grad, cuts, axis=1), caches):
            tower.backward(g, cache, _input_grad=False)  # towers take data

    def trainable(self):
        return [p for part in self.parts for p in part.trainable()]

    def arrays(self):
        return [a for part in self.parts for a in part.arrays()]

    def set_arrays(self, arrays) -> None:
        counts = [len(part.arrays()) for part in self.parts]
        if sum(counts) != len(arrays):
            raise ShapeMismatch(f"expected {sum(counts)} arrays, got {len(arrays)}")
        start = 0
        for part, n in zip(self.parts, counts):
            part.set_arrays(arrays[start : start + n])
            start += n


def _dense_head(n_in: int, fc_dim: int) -> list:
    return [Dense(n_in, fc_dim), ReLU(), Dense(fc_dim, 1), Sigmoid()]


class MiniCNN(Model):
    variant = "mini_cnn"

    def __init__(self, cfg: ModelConfig) -> None:
        tower = _tower_specs(cfg.input_shape[0], cfg.block_widths)
        flat = _chain_shape(tower, cfg.input_shape)[0]
        net = Sequential(tower + _dense_head(flat, cfg.fc_dim), cfg.input_shape,
                         derive_seed(cfg.seed, "mini_cnn"))
        super().__init__(cfg, (net,))


class TwoStream(Model):
    variant = "two_stream"

    def __init__(self, cfg: ModelConfig) -> None:
        hist = Sequential(
            _tower_specs(cfg.input_shape[0], cfg.block_widths),
            cfg.input_shape,
            derive_seed(cfg.seed, "two_stream.hist"),
        )
        pattern = Sequential(
            _tower_specs(cfg.pattern_shape[0], cfg.pattern_widths),
            cfg.pattern_shape,
            derive_seed(cfg.seed, "two_stream.pattern"),
        )
        fused = hist.output_shape[0] + pattern.output_shape[0]
        head = Sequential(_dense_head(fused, cfg.fc_dim), (fused,), derive_seed(cfg.seed, "two_stream.head"))
        super().__init__(cfg, (hist, pattern), head)


class CAEModel(Model):
    variant = "cae"

    def __init__(self, cfg: ModelConfig) -> None:
        c, h, w = cfg.input_shape
        w1, w2 = cfg.block_widths[0], cfg.block_widths[min(1, len(cfg.block_widths) - 1)]
        enc = [
            Conv2D(c, w1, 3, 1, 1), ReLU(), MaxPool2D(2, 2),
            Conv2D(w1, w2, 3, 1, 1), ReLU(), MaxPool2D(2, 2),
            Flatten(),
        ]
        bottleneck_hw = (w2, h // 4, w // 4)
        flat = w2 * (h // 4) * (w // 4)
        enc.append(Dense(flat, cfg.latent_dim))
        encoder = Sequential(enc, cfg.input_shape, derive_seed(cfg.seed, "cae.enc"))
        dec = [
            Dense(cfg.latent_dim, flat), ReLU(), Reshape(bottleneck_hw),
            NearestUpsample2D(2), Conv2D(w2, w1, 3, 1, 1), ReLU(),
            NearestUpsample2D(2), Conv2D(w1, c, 3, 1, 1), Sigmoid(),
        ]
        decoder = Sequential(dec, (cfg.latent_dim,), derive_seed(cfg.seed, "cae.dec"))
        if decoder.output_shape != cfg.input_shape:
            raise ShapeMismatch(
                f"decoder reproduces {decoder.output_shape}, input is {cfg.input_shape}; "
                "height/width must be divisible by 4"
            )
        super().__init__(cfg, (encoder,), decoder)

    def encode(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self.towers[0].predict(c) for (c,) in _chunks((x,))], axis=0)


class CNN1DModel(Model):
    variant = "cnn1d"

    def __init__(self, cfg: ModelConfig) -> None:
        n_blocks = math.ceil(len(cfg.block_widths) / 2)
        widths = cfg.block_widths[:n_blocks]
        specs: list = []
        c = cfg.latent_dim
        for w in widths:
            specs.extend([Conv1D(c, w, 3, 1, 1), ReLU(), MaxPool1D(2, 2)])
            c = w
        specs.append(Flatten())
        flat = _chain_shape(specs, (cfg.latent_dim, cfg.seq_len))[0]
        specs.extend([Dense(flat, 1), Sigmoid()])
        net = Sequential(specs, (cfg.latent_dim, cfg.seq_len), derive_seed(cfg.seed, "cnn1d"))
        super().__init__(cfg, (net,))


def _chunks(arrays: tuple[np.ndarray, ...]):
    """Tuples of the same ``_PREDICT_CHUNK`` consecutive rows of every array."""
    for i in range(0, len(arrays[0]), _PREDICT_CHUNK):
        yield tuple(x[i : i + _PREDICT_CHUNK] for x in arrays)


def build_model(cfg: ModelConfig) -> Model:
    classes = {cls.variant: cls for cls in (MiniCNN, TwoStream, CAEModel, CNN1DModel)}
    return classes[cfg.variant](cfg)


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
    """1-based ranks, ties receive the mean rank of their group."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sorted_v = values[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def evaluate(probs, labels, threshold: float = 0.5) -> EvalReport:
    """Accuracy, F1, and pair-counting AUC at the given threshold.

    AUC gives half credit to ties and is None when the labels hold a
    single class; the other metrics are still reported in that case.
    Positive prediction iff prob >= threshold.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.shape != labels.shape or probs.ndim != 1 or len(probs) == 0:
        raise LengthMismatch(f"probs {probs.shape} vs labels {labels.shape}")
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


def batch_inputs(model: Model, ts: TrainingSet, idx: np.ndarray) -> tuple[np.ndarray, ...]:
    """The rows ``idx`` of the first ``len(model.towers)`` streams of ``ts``."""
    streams = (ts.inputs, ts.pattern)[: len(model.towers)]
    if any(s is None for s in streams):
        raise ShapeMismatch(f"{type(model).__name__} needs a pattern stream in the training set")
    return tuple(s[idx] for s in streams)


def predict(model: Model, inputs: tuple[np.ndarray, ...]) -> np.ndarray:
    """Deterministic forward pass over a tuple of input streams; probabilities in (0, 1)."""
    return np.concatenate([model.forward(c)[0] for c in _chunks(inputs)], axis=0)


# --- splits and training ---------------------------------------------------


def split_indices(
    order: np.ndarray,
    member: np.ndarray | None,
    tc: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train/val/test index arrays; chronological within each member."""
    n = len(order)
    members = member if member is not None else np.zeros(n, dtype=np.int64)
    train: list[int] = []
    val: list[int] = []
    test: list[int] = []
    shuffler = Rng(derive_seed(tc.seed, "split-shuffle"))
    for m in np.unique(members):
        idx = np.nonzero(members == m)[0]
        idx = idx[np.argsort(order[idx], kind="stable")]
        if not tc.chronological:
            idx = list(idx)
            shuffler.shuffle(idx)
            idx = np.asarray(idx)
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

    def to_json(self) -> str:
        rows = [
            {
                "epoch": e.epoch,
                "train_loss": e.train_loss,
                "val_accuracy": e.val_accuracy,
                "val_f1": e.val_f1,
                "val_auc": e.val_auc,
            }
            for e in self.entries
        ]
        doc = {
            "epochs": rows,
            "n_train": self.n_train,
            "n_val": self.n_val,
            "n_test": self.n_test,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def best_val_accuracy(self) -> float:
        return max(e.val_accuracy for e in self.entries)

    def final_val_accuracy(self) -> float:
        return self.entries[-1].val_accuracy


def _fit(model: Model, streams: tuple[np.ndarray, ...], targets: np.ndarray, rows, loss,
         tc: TrainConfig, tag: str):
    """Mini-batch training on ``rows`` of ``streams``; yields each epoch's mean minibatch loss."""
    shuffle_rng = Rng(derive_seed(tc.seed, tag))
    step = adam_step if tc.optimizer == "adam" else sgd_step
    for _epoch in range(tc.epochs):
        idx = list(rows)
        shuffle_rng.shuffle(idx)
        losses = []
        for start in range(0, len(idx), tc.batch_size):
            batch = np.asarray(idx[start : start + tc.batch_size])
            out, caches = model.forward(tuple(s[batch] for s in streams))
            value, grad = loss(out, targets[batch].astype(out.dtype))
            model.backward(grad, caches)
            step(model.trainable(), tc.lr)
            losses.append(value)
        yield float(np.mean(losses))


def train(model: Model, ts: TrainingSet, tc: TrainConfig) -> TrainReport:
    """Mini-batch BCE training; epoch 0 records the untrained val metrics."""
    tr, va, te = split_indices(ts.order, ts.member, tc)
    report = TrainReport(n_train=len(tr), n_val=len(va), n_test=len(te))
    streams = batch_inputs(model, ts, slice(None))
    losses = _fit(model, streams, ts.labels, tr, loss_bce, tc, "batch-shuffle")
    for epoch, loss in enumerate(chain([None], losses)):
        rep = evaluate(predict(model, batch_inputs(model, ts, va)), ts.labels[va])
        report.entries.append(EpochStats(epoch, loss, rep.accuracy, rep.f1, rep.auc))
    return report


@dataclass
class SubchartPipelineResult:
    cae: CAEModel
    cnn1d: CNN1DModel
    cae_epoch_mse: list[float]  # full-pass MSE at [0] and [-1], mean minibatch MSE between
    training_set: TrainingSet  # every sample's encoded (latent_dim, S) sequence
    report: TrainReport

    @property
    def encoded_shape(self) -> tuple[int, ...]:
        return tuple(self.training_set.inputs.shape)


def _recon_mse(cae: CAEModel, images: np.ndarray) -> float:
    total = 0.0
    for chunk in _chunks((images,)):
        total += float(np.sum((cae.forward(chunk)[0] - chunk[0]) ** 2))
    return total / images.size


def train_subchart_pipeline(ds: SubchartDataset, tc: TrainConfig, cfg: ModelConfig) -> SubchartPipelineResult:
    """Two-phase decompose pipeline.

    Phase 1 trains the CAE on the training partition's sub-chart images
    with MSE. ``cae_epoch_mse`` holds the reconstruction MSE over all of
    them before training and after the last epoch, and each epoch's mean
    minibatch MSE in between. Phase 2 freezes the encoder, encodes every
    sample's sub-chart sequence into a (latent_dim, S) tensor, and trains
    CNN1D on the strength labels with BCE. The result carries that encoded
    training set, so callers slice it rather than encode again.
    """
    n, s = ds.subcharts.shape[0], ds.subcharts.shape[1]
    tr, _va, _te = split_indices(ds.order, ds.member, tc)

    cae_cfg = replace(cfg, variant="cae", input_shape=tuple(ds.subcharts.shape[2:]))
    cae = CAEModel(cae_cfg)
    train_imgs = ds.subcharts[tr].reshape((-1,) + ds.subcharts.shape[2:])
    epoch_mse = [_recon_mse(cae, train_imgs)]
    epoch_mse += _fit(cae, (train_imgs,), train_imgs, range(len(train_imgs)), loss_mse, tc, "cae-shuffle")
    if tc.epochs:
        epoch_mse[-1] = _recon_mse(cae, train_imgs)

    latent = cae.encode(ds.subcharts.reshape((-1,) + ds.subcharts.shape[2:]))
    encoded = np.ascontiguousarray(
        latent.reshape(n, s, cfg.latent_dim).transpose(0, 2, 1)
    )
    clf_ts = TrainingSet(
        inputs=encoded, labels=ds.labels, order=ds.order, member=ds.member
    )
    cnn1d = CNN1DModel(replace(cfg, variant="cnn1d", seq_len=s))
    report = train(cnn1d, clf_ts, tc)
    return SubchartPipelineResult(
        cae=cae, cnn1d=cnn1d, cae_epoch_mse=epoch_mse, training_set=clf_ts, report=report
    )
