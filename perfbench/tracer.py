"""Spans and counters recorded from outside candlekit.

A traced pass swaps names that candlekit modules import (``forward`` in
``candlekit.nn.network``, ``render_window`` in ``candlekit.experiment``,
...) for wrappers that record one span per call, and puts the originals
back when the pass ends. Nothing under ``src/`` knows about it, and an
untraced run installs no wrapper at all.

A span is ``[name, start, end, parent, pass_id, attrs]`` with times from
``time.perf_counter``; ``parent`` is the index of the enclosing span or -1.
Self time is a span's duration minus the durations of its children. Spans
stay in memory until the run writes them out.

Kernel counts for Conv2D, Conv1D and Dense are computed from array shapes
(an im2col lowering: the patch matrix in forward, the patch-gradient
matrix in backward), not measured. The one measured byte count is the
size of every ``sliding_window_view`` that ``candlekit.nn.layers`` builds,
charged to the layer span open at the time: it shows whether backward
rebuilds the patch matrix that forward already built.
"""

from __future__ import annotations

import contextlib
import functools
import pathlib
from collections import defaultdict
from time import perf_counter

import candlekit.datasets as datasets
import candlekit.decompose as decompose
import candlekit.experiment as experiment
import candlekit.labeling as labeling
import candlekit.models as models
import candlekit.nn.layers as layers
import candlekit.nn.network as network
import candlekit.raster as raster

NN_TYPES = {
    layers.Conv2D: "conv2d",
    layers.Conv1D: "conv1d",
    layers.MaxPool2D: "maxpool2d",
    layers.MaxPool1D: "maxpool1d",
    layers.Dense: "dense",
    layers.ReLU: "relu",
    layers.Sigmoid: "sigmoid",
    layers.NearestUpsample2D: "upsample2d",
    layers.Flatten: "flatten",
    layers.Reshape: "reshape",
}
MODULES = (
    "market_data", "patterns", "labeling", "raster", "decompose",
    "datasets", "nn", "models", "experiment",
)
ARMS = ("with_pattern", "non_pattern", "subchart")
TRAIN_VARIANTS = ("mini_cnn", "two_stream", "cnn1d")

_FWD = {cls: f"nn.{t}.fwd" for cls, t in NN_TYPES.items()}
_BWD = {cls: f"nn.{t}.bwd" for cls, t in NN_TYPES.items()}


def _add(span: list, key: str, n: float) -> None:
    if span[5] is None:
        span[5] = {}
    span[5][key] = span[5].get(key, 0) + n


def _out_dim(n: int, k: int, stride: int, pad: int) -> int:
    return (n + 2 * pad - k) // stride + 1


def _kernel_counts(spec, x_shape, itemsize: int, backward: bool) -> tuple[int, int] | None:
    """(flops, bytes) of one Conv2D/Conv1D/Dense call, from shapes alone.

    ``x_shape`` is the layer input in forward and ``grad_out`` in backward.
    Convolutions count the im2col patch matrix (M x K) in forward and the
    patch-gradient matrix of the same size in backward; Dense counts the
    matmul operands and result. Backward does two matmuls (weights and
    input gradients), so it counts twice the forward flops.
    """
    mult = 2 if backward else 1
    if isinstance(spec, layers.Conv2D):
        n = x_shape[0]
        if backward:
            oh, ow = x_shape[2], x_shape[3]
        else:
            oh = _out_dim(x_shape[2], spec.kernel, spec.stride, spec.pad)
            ow = _out_dim(x_shape[3], spec.kernel, spec.stride, spec.pad)
        m, k = n * oh * ow, spec.in_ch * spec.kernel * spec.kernel
        return 2 * m * k * spec.out_ch * mult, m * k * itemsize
    if isinstance(spec, layers.Conv1D):
        n = x_shape[0]
        ol = x_shape[2] if backward else _out_dim(
            x_shape[2], spec.kernel, spec.stride, spec.pad
        )
        m, k = n * ol, spec.in_ch * spec.kernel
        return 2 * m * k * spec.out_ch * mult, m * k * itemsize
    if isinstance(spec, layers.Dense):
        n = x_shape[0]
        operands = n * spec.n_in + spec.n_in * spec.n_out + n * spec.n_out
        return 2 * n * spec.n_in * spec.n_out * mult, operands * itemsize * mult
    return None


class Tracer:
    """In-memory spans plus the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._fwd_patch_bytes: dict[int, float] = {}
        self.pass_id = 0
        self.missing: list[str] = []  # names a traced pass could not swap

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _span(self, fn, name, hook=None):
        """Wrap ``fn`` so each call records a span; ``name`` may be a callable."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(span, args, result)
                return result
            finally:
                self._close(span)

        return wrapper

    # -- hooks: counts recorded inside the span they belong to ----------------

    def _nn_forward(self, span, args, result):
        spec, x = args[0], args[2]
        counts = _kernel_counts(spec, x.shape, x.itemsize, backward=False)
        if counts is not None:
            _add(span, "flops", counts[0])
            _add(span, "bytes", counts[1])
        if isinstance(spec, layers.Conv2D):
            self._fwd_patch_bytes[id(result[1])] = span[5].get("view_bytes", 0)

    def _nn_backward(self, span, args, result):
        spec, cache, grad = args[0], args[2], args[3]
        counts = _kernel_counts(spec, grad.shape, grad.itemsize, backward=True)
        if counts is not None:
            _add(span, "flops", counts[0])
            _add(span, "bytes", counts[1])
        if isinstance(spec, layers.Conv2D):
            built = span[5].get("view_bytes", 0) if span[5] else 0
            self.counters["conv2d.bwd_patch_bytes"] += built
            self.counters["conv2d.fwd_patch_bytes"] += self._fwd_patch_bytes.pop(id(cache), 0)

    def _count_view(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            view = fn(*args, **kwargs)
            if self._stack:
                _add(self.spans[self._stack[-1]], "view_bytes", view.size * view.itemsize)
            return view

        return wrapper

    def _count_write(self, fn):
        @functools.wraps(fn)
        def wrapper(path, data, *args, **kwargs):
            result = fn(path, data, *args, **kwargs)
            self.counters["files_written"] += 1
            self.counters["bytes_written"] += path.stat().st_size
            return result

        return wrapper

    def _targets(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, wrapper) for every name the traced pass swaps.

        A name the program no longer has is listed in ``missing`` and its
        metrics read 0, so the traced run still completes.
        """
        span = self._span

        def size_of_arg(key):
            return lambda s, args, result: _add(s, key, len(args[0]))

        def size_of_result(key):
            return lambda s, args, result: _add(s, key, len(result))

        def ckpt_bytes(s, args, result):
            _add(s, "bytes", pathlib.Path(args[0]).stat().st_size)

        def encoded(s, args, result):
            _add(s, "images", len(args[1]))

        def subchart_images(s, args, result):
            _add(s, "images", result.subcharts.shape[0] * result.subcharts.shape[1])

        t: list[tuple[object, str, object]] = []

        def add(owner, attr, name, hook=None):
            if attr in owner.__dict__:
                t.append((owner, attr, span(owner.__dict__[attr], name, hook)))
            else:
                self.missing.append(f"{owner.__name__}.{attr}")

        # nn: layer dispatch inside Sequential, the Sequential methods
        # themselves, and what models/experiment call around them.
        add(network, "forward", lambda a: _FWD[type(a[0])], self._nn_forward)
        add(network, "backward", lambda a: _BWD[type(a[0])], self._nn_backward)
        if "sliding_window_view" in layers.__dict__:
            t.append((layers, "sliding_window_view", self._count_view(layers.sliding_window_view)))
        add(network.Sequential, "forward", "nn.sequential.fwd")
        add(network.Sequential, "backward", "nn.sequential.bwd")
        add(models, "adam_step", "nn.optim.adam")
        add(models, "loss_bce", "nn.losses")
        add(models, "loss_mse", "nn.losses")
        add(experiment, "save_arrays", "nn.checkpoint.save", ckpt_bytes)
        # models
        for owner in (models, experiment):
            add(owner, "train", lambda a: f"models.train.{a[0].variant}")
            add(owner, "predict", "models.predict")
            add(owner, "evaluate", "models.evaluate")
        add(experiment, "train_subchart_pipeline", "models.subchart_pipeline")
        add(models.CAEModel, "encode", "models.encode", encoded)
        # datasets, raster, decompose
        for owner in (datasets, experiment):
            add(owner, "assemble_training_set", "datasets.assemble_training_set")
            add(owner, "assemble_subchart_dataset", "datasets.assemble_subchart", subchart_images)
        for owner in (datasets, raster):
            add(owner, "read_ppm", "raster.read_ppm", size_of_arg("bytes"))
        add(datasets, "resize_nearest", "raster.resize")
        add(datasets, "render_window", "raster.render")
        add(datasets, "subcharts", "decompose.subcharts")
        add(decompose, "inverse_parse", "decompose.inverse_parse")
        # experiment and the data-prep modules it drives
        add(experiment, "synth_series", "market_data.synth", size_of_result("rows"))
        add(experiment, "parse_csv", "market_data.parse_csv", size_of_result("rows"))
        add(experiment, "build_samples", "labeling.build_samples", size_of_result("samples"))
        add(labeling, "detect_all", "patterns.detect", size_of_result("matches"))
        add(experiment, "render_window", "raster.render")
        add(experiment, "render_pattern", "raster.render")
        add(experiment, "write_ppm", "raster.write_ppm", size_of_result("bytes"))
        add(experiment, "build_dataset", "experiment.build_dataset")
        add(experiment, "run_arm", lambda a: f"experiment.run_arm.{a[3].arm_name}")
        add(experiment, "run_experiment", "experiment.run_experiment")
        add(experiment, "render_report", "experiment.report")
        for attr in ("write_bytes", "write_text"):
            t.append((pathlib.Path, attr, self._count_write(getattr(pathlib.Path, attr))))
        return t

    @contextlib.contextmanager
    def installed(self, pass_id: int):
        """Swap in the wrappers for one pass; the originals return afterwards."""
        self.pass_id = pass_id
        saved = []
        try:
            for owner, attr, wrapper in self._targets():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()
            self._fwd_patch_bytes.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the summed durations of its children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out: list[tuple[str, str]] = []
    for t in NN_TYPES.values():
        out += [(f"nn.{t}.fwd_s", "s"), (f"nn.{t}.bwd_s", "s"), (f"nn.{t}.calls", "count")]
    for t, kind in (("conv2d", "im2col"), ("conv1d", "im2col"), ("dense", "matmul")):
        out += [(f"nn.{t}.flops", "flop-computed"), (f"nn.{t}.{kind}_bytes", "B-computed"),
                (f"nn.{t}.flops_per_byte", "flop/B-computed")]
    out += [
        ("nn.conv2d.bwd_im2col_ratio", "ratio"),
        ("nn.sequential.self_s", "s"),
        ("nn.optim.adam_s", "s"),
        ("nn.losses_s", "s"),
        ("nn.checkpoint.save_s", "s"),
        ("nn.checkpoint.save_bytes", "B"),
    ]
    out += [(f"models.train_s.{v}", "s") for v in TRAIN_VARIANTS]
    out += [
        ("models.cae_phase_s", "s"),
        ("models.encode_s", "s"),
        ("models.predict_s", "s"),
        ("models.evaluate_s", "s"),
        ("models.encoded_per_subchart", "ratio"),
        ("datasets.assemble_training_set_s", "s"),
        ("datasets.assemble_subchart_s", "s"),
        ("datasets.ppm_reads_per_write", "ratio"),
        ("raster.render_s", "s"),
        ("raster.write_ppm_s", "s"),
        ("raster.read_ppm_s", "s"),
        ("raster.resize_s", "s"),
        ("raster.ppm_bytes_written", "B"),
        ("raster.ppm_bytes_read", "B"),
        ("decompose.subcharts_s", "s"),
        ("decompose.inverse_parse_s", "s"),
        ("patterns.detect_s", "s"),
        ("patterns.matches", "count"),
        ("labeling.build_samples_s", "s"),
        ("labeling.samples_per_match", "ratio"),
        ("market_data.synth_s", "s"),
        ("market_data.parse_csv_s", "s"),
        ("market_data.rows", "count"),
        ("experiment.build_dataset_s", "s"),
    ]
    out += [(f"experiment.run_arm_s.{a}", "s") for a in ARMS]
    out += [
        ("experiment.report_s", "s"),
        ("experiment.files_written", "count"),
        ("experiment.bytes_written", "B"),
    ]
    out += [(f"layer.{m}.self_s", "s") for m in MODULES]
    out += [
        ("other_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer: Tracer, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed like :func:`per_layer_names`.

    Named function metrics are inclusive of the calls under them, except
    ``labeling.build_samples_s`` and ``experiment.build_dataset_s``, which
    are self time; ``layer.<module>.self_s`` sums self time per module, and
    those sums plus ``other_s`` (time under no span) make up ``trace.wall_s``.
    """
    spans = tracer.spans
    own = self_times(spans)
    dur: dict[str, float] = defaultdict(float)
    selft: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attrs: dict[str, float] = defaultdict(float)
    module_self: dict[str, float] = defaultdict(float)
    top = 0.0
    pipeline_children = 0.0
    for i, s in enumerate(spans):
        name = s[0]
        d = s[2] - s[1]
        dur[name] += d
        selft[name] += own[i]
        calls[name] += 1
        module_self[name.split(".", 1)[0]] += own[i]
        if s[5]:
            for k, v in s[5].items():
                attrs[f"{name}:{k}"] += v
        if s[3] < 0:
            top += d
        elif spans[s[3]][0] == "models.subchart_pipeline" and name in (
            "models.encode", "models.train.cnn1d"
        ):
            pipeline_children += d

    m: dict[str, float] = {}
    for t in NN_TYPES.values():
        m[f"nn.{t}.fwd_s"] = selft[f"nn.{t}.fwd"]
        m[f"nn.{t}.bwd_s"] = selft[f"nn.{t}.bwd"]
        m[f"nn.{t}.calls"] = calls[f"nn.{t}.fwd"] + calls[f"nn.{t}.bwd"]
    for t, kind in (("conv2d", "im2col"), ("conv1d", "im2col"), ("dense", "matmul")):
        flops = attrs[f"nn.{t}.fwd:flops"] + attrs[f"nn.{t}.bwd:flops"]
        nbytes = attrs[f"nn.{t}.fwd:bytes"] + attrs[f"nn.{t}.bwd:bytes"]
        m[f"nn.{t}.flops"] = flops
        m[f"nn.{t}.{kind}_bytes"] = nbytes
        m[f"nn.{t}.flops_per_byte"] = _ratio(flops, nbytes)
    c = tracer.counters
    m["nn.conv2d.bwd_im2col_ratio"] = _ratio(
        c["conv2d.bwd_patch_bytes"], c["conv2d.fwd_patch_bytes"]
    )
    m["nn.sequential.self_s"] = selft["nn.sequential.fwd"] + selft["nn.sequential.bwd"]
    m["nn.optim.adam_s"] = dur["nn.optim.adam"]
    m["nn.losses_s"] = dur["nn.losses"]
    m["nn.checkpoint.save_s"] = dur["nn.checkpoint.save"]
    m["nn.checkpoint.save_bytes"] = attrs["nn.checkpoint.save:bytes"]
    for v in TRAIN_VARIANTS:
        m[f"models.train_s.{v}"] = dur[f"models.train.{v}"]
    m["models.cae_phase_s"] = dur["models.subchart_pipeline"] - pipeline_children
    m["models.encode_s"] = dur["models.encode"]
    m["models.predict_s"] = dur["models.predict"]
    m["models.evaluate_s"] = dur["models.evaluate"]
    m["models.encoded_per_subchart"] = _ratio(
        attrs["models.encode:images"], attrs["datasets.assemble_subchart:images"]
    )
    m["datasets.assemble_training_set_s"] = dur["datasets.assemble_training_set"]
    m["datasets.assemble_subchart_s"] = dur["datasets.assemble_subchart"]
    m["datasets.ppm_reads_per_write"] = _ratio(calls["raster.read_ppm"], calls["raster.write_ppm"])
    m["raster.render_s"] = dur["raster.render"]
    m["raster.write_ppm_s"] = dur["raster.write_ppm"]
    m["raster.read_ppm_s"] = dur["raster.read_ppm"]
    m["raster.resize_s"] = dur["raster.resize"]
    m["raster.ppm_bytes_written"] = attrs["raster.write_ppm:bytes"]
    m["raster.ppm_bytes_read"] = attrs["raster.read_ppm:bytes"]
    m["decompose.subcharts_s"] = dur["decompose.subcharts"]
    m["decompose.inverse_parse_s"] = dur["decompose.inverse_parse"]
    m["patterns.detect_s"] = dur["patterns.detect"]
    m["patterns.matches"] = attrs["patterns.detect:matches"]
    m["labeling.build_samples_s"] = selft["labeling.build_samples"]
    m["labeling.samples_per_match"] = _ratio(
        attrs["labeling.build_samples:samples"], attrs["patterns.detect:matches"]
    )
    m["market_data.synth_s"] = dur["market_data.synth"]
    m["market_data.parse_csv_s"] = dur["market_data.parse_csv"]
    m["market_data.rows"] = attrs["market_data.synth:rows"] + attrs["market_data.parse_csv:rows"]
    m["experiment.build_dataset_s"] = selft["experiment.build_dataset"]
    for a in ARMS:
        m[f"experiment.run_arm_s.{a}"] = dur[f"experiment.run_arm.{a}"]
    m["experiment.report_s"] = dur["experiment.report"]
    m["experiment.files_written"] = c["files_written"]
    m["experiment.bytes_written"] = c["bytes_written"]
    for mod in MODULES:
        m[f"layer.{mod}.self_s"] = module_self[mod]
    m["other_s"] = wall_s - top
    m["trace.wall_s"] = wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    m["trace.spans"] = len(spans)
    return m
