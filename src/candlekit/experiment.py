"""End-to-end experiment orchestration.

A JSON manifest names datasets (CSV files, synthetic generator specs, or
merges of other entries), a list of arms (a model variant, fed the streams
its class ``reads``), and the shared pattern/labeler/render/train/model
configuration. One master seed expands into per-stage sub-seeds via
``derive_seed(master, tag)``, so every output byte (dataset images,
checkpoints, report.json) is a pure function of (manifest, master seed),
and rebuilding without changes rewrites identical files.

In the pattern arm the pattern stream always receives the ground-truth
rendered crop, during training and evaluation alike, never the output of
any detector. Datasets are built, and then (dataset, arm) pairs run, on
one worker process per CPU this process may use, or in this process when
it may use only one. Each build and each pair is isolated: a failing one
is recorded as an error row, the remaining pairs still run, and rows keep
manifest order whichever job ends first. All paths stored in reports and
dataset manifests are relative, so two runs into different output
directories still produce identical bytes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform
import re
import shutil
import threading
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import repeat
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .datasets import assemble_subchart_dataset, assemble_training_set
from .errors import CandlekitError, EmptyDataset, ManifestError, SourceNotFound
from .fileio import parse_json, read_input, write_atomic
from .labeling import LabelerParams, build_samples
from .market_data import MAX_SYNTH_N, Series, SynthParams, parse_csv, synth_series
from .models import (
    MODELS,
    VARIANTS as ARM_MODELS,
    EvalReport,
    MiniCNN,
    Model,
    ModelConfig,
    TrainConfig,
    TrainingSet,
    TrainReport,
    batch_inputs,
    build_model,
    check_shapes,
    evaluate,
    predict,
    split_indices,
    train,
)
from .nn import load_arrays, save_arrays
from .patterns import PatternRuleParams
from .raster import RenderSpec, render_pattern, render_window, write_ppm
from .rng import MAX_SEED, derive_seed

# Dataset and arm names become path components (``datasets/<name>``,
# ``checkpoints/<dataset>__<arm>.ckpt``): no separator, no ``.``/``..``, and
# no leading dot, so a dataset cannot be another's temp dir.
_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


def _check_name(name, what: str) -> None:
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ManifestError(
            f"{what} name {name!r} must be letters, digits, '_', '-' or '.', not led by '.'"
        )


@dataclass(frozen=True)
class SynthSpec(SynthParams):
    """A synthetic source: ``n`` (1 to MAX_SYNTH_N) candles of the walk its :class:`SynthParams` fields
    describe. A drift that alone leaves float range fails here; volatility and wicks can at build (BadParams)."""

    n: int = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 1 <= self.n <= MAX_SYNTH_N:
            raise ManifestError(f"synth spec needs n in [1, {MAX_SYNTH_N}], got {self.n}")
        lo, hi = np.log(np.finfo(float).tiny), np.log(np.finfo(float).max)
        if not all(lo < math.log(self.start_price) + t * self.drift < hi for t in (1, self.n)):
            raise ManifestError(
                f"synth drift {self.drift} from {self.start_price} leaves float range in {self.n} candles")


@dataclass(frozen=True)
class DatasetSpec:
    """A path-safe name and exactly one source, checked when built: a CSV file (relative to
    the manifest's directory), a synthetic walk, or a non-empty list of datasets to merge."""

    name: str
    csv_path: str | None = None
    synth: SynthSpec | None = None
    members: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _check_name(self.name, "dataset")
        if sum(v is not None for v in (self.csv_path, self.synth, self.members)) != 1:
            raise ManifestError(f"dataset {self.name!r} must have exactly one of csv_path/synth/members")
        if self.members == ():
            raise ManifestError(f"merge dataset {self.name!r} has no members")

    @property
    def is_merge(self) -> bool:
        return self.members is not None


@dataclass(frozen=True)
class ArmSpec:
    """A path-safe name and a known model kind, checked when built; ``include_pattern``
    follows the model (whether its class reads the pattern stream), and a given one must agree."""

    arm_name: str
    model: str = MiniCNN.variant
    include_pattern: bool | None = None

    def __post_init__(self) -> None:
        _check_name(self.arm_name, "arm")
        if self.model not in ARM_MODELS:
            raise ManifestError(f"arm model must be one of {ARM_MODELS}, got {self.model!r}")
        reads = "pattern" in MODELS[self.model].reads
        if self.include_pattern not in (None, reads):
            raise ManifestError(f"arm {self.arm_name!r} include_pattern must be {reads} for model "
                                f"{self.model!r}, which reads {MODELS[self.model].reads}")
        object.__setattr__(self, "include_pattern", reads)


@dataclass(frozen=True)
class ModelSettings:
    """Input geometry and widths shared by all arms, checked when built: ``subchart_k`` and
    ``subchart_stride`` at least 1, then every arm kind's :meth:`model_config` must pass the
    models' own ``check_shapes``, which alone decides the sizes, widths and ``window``."""

    hist_hw: tuple[int, int] = (64, 64)
    pattern_hw: tuple[int, int] = (32, 32)
    subchart_hw: tuple[int, int] = (32, 32)
    block_widths: tuple[int, ...] = (8, 16, 32)
    pattern_widths: tuple[int, ...] = (8, 16)
    fc_dim: int = 64
    latent_dim: int = 32
    window: int = 30
    subchart_k: int = 3
    subchart_stride: int = 1

    def __post_init__(self) -> None:
        for key in ("subchart_k", "subchart_stride"):
            if getattr(self, key) < 1:
                raise ManifestError(f"model {key} must be >= 1, got {getattr(self, key)}")
        for variant in ARM_MODELS:
            check_shapes(self.model_config(variant))

    @property
    def seq_len(self) -> int:
        """Sub-charts per chart: the length of the sequence the Decomposer's CNN1D reads."""
        return (self.window - self.subchart_k) // self.subchart_stride + 1

    def model_config(self, variant: str, seed: int = 0) -> ModelConfig:
        """``variant``'s model config; the subchart arm's input is one sub-chart, ``seq_len`` of them per chart."""
        hw = self.subchart_hw if "subcharts" in MODELS[variant].reads else self.hist_hw
        return ModelConfig(
            variant=variant, input_shape=(3, *hw), block_widths=self.block_widths, fc_dim=self.fc_dim,
            pattern_shape=(3, *self.pattern_hw), pattern_widths=self.pattern_widths,
            latent_dim=self.latent_dim, seq_len=self.seq_len, seed=seed,
        )


@dataclass
class ExperimentManifest:
    """Checked when built: a u64 master_seed, uniquely named datasets and arms, and merges of concrete
    datasets only. A ``key`` in a field's metadata is its JSON key; ``base_dir`` is the file's directory."""

    master_seed: int
    datasets: list[DatasetSpec]
    arms: list[ArmSpec]
    output_dir: str = "out"
    pattern_params: PatternRuleParams = field(default_factory=PatternRuleParams, metadata={"key": "pattern"})
    labeler_params: LabelerParams = field(default_factory=LabelerParams, metadata={"key": "labeler"})
    render_spec: RenderSpec = field(default_factory=RenderSpec, metadata={"key": "render"})
    train_config: TrainConfig = field(default_factory=TrainConfig, metadata={"key": "train"})
    model_settings: ModelSettings = field(default_factory=ModelSettings, metadata={"key": "model"})
    base_dir: Path = field(default=Path("."), init=False)

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed <= MAX_SEED:
            raise ManifestError(f"master_seed must be in [0, 2^64), got {self.master_seed}")
        names = {"dataset": [d.name for d in self.datasets], "arm": [a.arm_name for a in self.arms]}
        for what, given in names.items():
            if not given or len(set(given)) != len(given):
                raise ManifestError(f"a manifest needs {what}s, uniquely named, got {given}")
        concrete = {d.name for d in self.datasets if not d.is_merge}
        if unknown := [m for d in self.datasets for m in d.members or () if m not in concrete]:
            raise ManifestError(f"merges must name concrete datasets, got {unknown}")


def _expect(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (an int passes for a float, a bool for
    neither, and a float must be finite); ManifestError otherwise."""
    kinds = (int, float) if kind is float else kind
    if (not isinstance(value, kinds) or (isinstance(value, bool) and kind is not bool)
            or (kind is float and not -math.inf < value < math.inf)):
        raise ManifestError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


_hints = functools.cache(get_type_hints)


def _value(kind, value, what: str):
    """``value`` read as a ``kind``: a dataclass, a tuple or list of one item kind, or an
    ``_expect`` kind. ``X | None`` reads as ``X``: a field may be left out, never null."""
    if value is None:
        raise ManifestError(f"{what} cannot be null")
    if get_origin(kind) is UnionType:
        kind = next(k for k in get_args(kind) if k is not type(None))
    if is_dataclass(kind):
        return _read(kind, value, what)
    if get_origin(kind) in (tuple, list):
        items = [_value(get_args(kind)[0], v, f"{what}[{i}]")
                 for i, v in enumerate(_expect(value, list, what))]
        return get_origin(kind)(items)
    return _expect(value, kind, what)


def _read(cls, obj, what: str):
    """``cls`` from the JSON object ``obj``; an unknown or missing key, a value of the wrong
    kind or one the class rejects raises ManifestError."""
    keys = {f.metadata.get("key", f.name): f.name for f in fields(cls) if f.init}
    for k in _expect(obj, dict, what):
        if k not in keys:
            raise ManifestError(f"{what} has unknown key {k!r}; known keys: {', '.join(keys)}")
    values = {keys[k]: _value(_hints(cls)[keys[k]], v, f"{what}.{k}") for k, v in obj.items()}
    try:
        return cls(**values)
    except (TypeError, CandlekitError) as exc:
        raise ManifestError(f"bad {what}: {exc}") from exc


def manifest_from_dict(doc: dict, base_dir: str | Path = ".") -> ExperimentManifest:
    """Manifest from a parsed JSON document, one :func:`_read` for every level.

    An unknown key, a null, a wrong JSON type, a missing required key, an
    entry or section its class rejects when built, and a ``train`` ``seed``
    (each arm's is derived from ``master_seed``) raise ManifestError here rather than mid-run.
    """
    man = _read(ExperimentManifest, doc, "manifest")
    if "seed" in doc.get("train", {}):
        raise ManifestError("train seed cannot be set: each arm's is derived from master_seed")
    man.base_dir = Path(base_dir)
    return man


def _read_json(path: str | Path, what: str):
    return parse_json(read_input(path, what, Path.read_bytes), f"{what} {path}")


def load_manifest(path: str | Path) -> ExperimentManifest:
    return manifest_from_dict(_read_json(path, "manifest"), base_dir=Path(path).parent)


def _resolve_series(man: ExperimentManifest, ds: DatasetSpec) -> Series:
    if ds.csv_path is not None:
        path = man.base_dir / ds.csv_path  # an absolute csv_path stays as it is
        return parse_csv(read_input(path, f"csv for dataset {ds.name!r}"), symbol=ds.name)
    seed = derive_seed(man.master_seed, f"dataset:{ds.name}")
    return synth_series(seed, ds.synth.n, ds.synth, symbol=ds.name)


_SAFE = re.compile(r"[^A-Za-z0-9_-]+")


def _safe_stem(symbol: str, end_index: int, kind: str) -> str:
    return f"{_SAFE.sub('-', symbol)}_{end_index:05d}_{kind}"


def build_dataset(man: ExperimentManifest, name: str, out_root: Path | None = None) -> Path:
    """Detect, label, and render one concrete dataset to disk.

    Writes ``manifest.jsonl`` plus per-sample history and pattern PPMs
    into a sibling temp dir, then swaps it in, so a rebuild leaves no file
    of an earlier build. Deterministic: rebuilding with identical inputs
    rewrites identical bytes.
    """
    if _members(man, name) != (name,):
        raise ManifestError(f"dataset {name!r} is a merge; build its members instead")
    ds = next(d for d in man.datasets if d.name == name)
    root = out_root if out_root is not None else Path(man.output_dir)
    series = _resolve_series(man, ds)
    samples = build_samples(
        series, man.pattern_params, man.labeler_params, w=man.model_settings.window
    )
    if not samples:
        raise EmptyDataset(f"dataset {name!r} produced no admissible samples")

    ddir = root / "datasets" / name
    tmp = ddir.with_name(f".{ddir.name}.tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    (tmp / "history").mkdir(parents=True)
    (tmp / "pattern").mkdir()
    lines = []
    for s in samples:
        stem = _safe_stem(series.symbol, s.match.end_index, s.match.kind.value)
        hist_rel = f"history/{stem}.ppm"
        pat_rel = f"pattern/{stem}.ppm"
        hist_img = render_window(s.history, man.render_spec)
        pat_img = render_pattern(s.history, s.match, man.render_spec)
        (tmp / hist_rel).write_bytes(write_ppm(hist_img))
        (tmp / pat_rel).write_bytes(write_ppm(pat_img))
        lines.append(
            json.dumps(
                {
                    "sample_id": s.sample_id,
                    "symbol": series.symbol,
                    **s.match.to_dict(),
                    "strength": s.strength.value,
                    "history_image_path": hist_rel,
                    "pattern_image_path": pat_rel,
                },
                sort_keys=True,
            )
        )
    (tmp / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    if ddir.exists():
        shutil.rmtree(ddir)
    tmp.rename(ddir)
    return ddir


def _members(man: ExperimentManifest, name: str) -> tuple[str, ...]:
    """The concrete datasets that dataset ``name`` reads: a merge's members, else itself.
    SourceNotFound if the manifest has no dataset ``name``."""
    ds = next((d for d in man.datasets if d.name == name), None)
    if ds is None:
        raise SourceNotFound(f"dataset {name!r} not in manifest")
    return ds.members or (name,)


def _model_config(man: ExperimentManifest, ds_name: str, arm: ArmSpec) -> ModelConfig:
    """The arm's model config, seeded for its (dataset, arm) pair."""
    seed = derive_seed(man.master_seed, f"model:{ds_name}:{arm.arm_name}")
    return man.model_settings.model_config(arm.model, seed)


def _train_config(man: ExperimentManifest, ds_name: str, arm: ArmSpec) -> TrainConfig:
    return replace(
        man.train_config,
        seed=derive_seed(man.master_seed, f"train:{ds_name}:{arm.arm_name}"),
    )


@dataclass
class ArmOutcome:
    row: dict
    train_report: TrainReport


def _arm_row(ds_name: str, arm: ArmSpec, error: str | None = None, **fields) -> dict:
    """One report row; ``error`` set marks the (dataset, arm) pair failed."""
    return {
        "dataset": ds_name,
        "arm": arm.arm_name,
        "model": arm.model,
        "include_pattern": arm.include_pattern,
        "status": "ok" if error is None else "error",
        "error": error,
        **fields,
    }


def _assemble(man: ExperimentManifest, dirs: dict[str, Path], ds_name: str, arm: ArmSpec):
    """The ``TrainingSet`` of the streams the arm's model reads, from ``ds_name``'s member dirs."""
    ms = man.model_settings
    member_dirs = [dirs[m] for m in _members(man, ds_name)]
    if "subcharts" in MODELS[arm.model].reads:
        return assemble_subchart_dataset(
            member_dirs, ms.subchart_hw, man.render_spec, k=ms.subchart_k, stride=ms.subchart_stride
        )
    return assemble_training_set(member_dirs, ms.hist_hw, ms.pattern_hw, include_pattern=arm.include_pattern)


def _test_report(model: Model, ts: TrainingSet, tc: TrainConfig) -> EvalReport:
    """Metrics on the test partition that ``train`` held out."""
    _tr, _va, te = split_indices(ts.order, ts.member, tc)
    return evaluate(predict(model, batch_inputs(model, ts, te)), ts.labels[te])


def run_arm(
    man: ExperimentManifest,
    dirs: dict[str, Path],
    ds_name: str,
    arm: ArmSpec,
    out_root: Path,
) -> ArmOutcome:
    """Train and test one (dataset, arm) pair; saves its arrays to ``checkpoints/<dataset>__<arm>.ckpt``.

    A Decomposer's CAE record gives the row's ``cae_mse_first`` and ``cae_mse_final``.
    """
    tc = _train_config(man, ds_name, arm)
    (out_root / "checkpoints").mkdir(parents=True, exist_ok=True)
    ts = _assemble(man, dirs, ds_name, arm)
    model = build_model(_model_config(man, ds_name, arm))
    report = train(model, ts, tc)
    rep = _test_report(model, ts, tc)
    checkpoint = f"checkpoints/{ds_name}__{arm.arm_name}.ckpt"
    save_arrays(out_root / checkpoint, model.arrays())
    cae = report.cae_mse
    extra = {"cae_mse_first": cae[0], "cae_mse_final": cae[-1]} if cae else {}
    strong = int(np.sum(ts.labels == 1.0))
    row = _arm_row(
        ds_name,
        arm,
        threshold=rep.threshold,
        n_samples=len(ts),
        n_train=report.n_train,
        n_val=report.n_val,
        n_test=report.n_test,
        class_balance={"strong": strong, "weak": len(ts) - strong},
        metrics={"accuracy": rep.accuracy, "f1": rep.f1, "auc": rep.auc},
        checkpoint=checkpoint,
        **extra,
    )
    return ArmOutcome(row=row, train_report=report)


def evaluate_checkpoint(
    man: ExperimentManifest, ds_name: str, arm: ArmSpec, checkpoint: str | Path
) -> EvalReport:
    """Test-partition metrics of any arm's :func:`run_arm` checkpoint, split as that run split.

    Builds only the datasets that ``ds_name`` reads, and only once the checkpoint has loaded.
    """
    members = _members(man, ds_name)
    model = build_model(_model_config(man, ds_name, arm))
    model.set_arrays(load_arrays(checkpoint))
    dirs = {m: build_dataset(man, m) for m in members}
    ts = _assemble(man, dirs, ds_name, arm)
    return _test_report(model, ts, _train_config(man, ds_name, arm))


@dataclass
class ExperimentReport:
    rows: list[dict]
    environment: dict

    def to_dict(self) -> dict:
        return {"environment": self.environment, "rows": self.rows}

    def all_ok(self) -> bool:
        return all(r["status"] == "ok" for r in self.rows)


def load_report(path: str | Path) -> ExperimentReport:
    """Read back the ``report.json`` that :func:`run_experiment` writes.

    A document :func:`_read` rejects, or one :func:`render_report` cannot
    render (a row's key missing, or a printed number, count or seed of the
    wrong type), raises ManifestError.
    """
    report = _read(ExperimentReport, _read_json(path, "report"), f"report {path}")
    try:
        render_report(report)
    except (KeyError, TypeError, ValueError, ManifestError) as exc:
        raise ManifestError(f"report {path} cannot be rendered: {exc!r}") from exc
    return report


def _remove_stale(out_root: Path, rows: list[dict]) -> None:
    """Delete the datasets and checkpoints the last ``report.json`` lists that ``rows`` no longer cover.

    So a rerun with a smaller manifest leaves no file a fresh run lacks; an entry
    that report does not list, or a dataset whose rebuild failed, stays.
    """
    try:
        old = load_report(out_root / "report.json").rows
        for r in old:
            _check_name(r["dataset"], "dataset")
            _check_name(r["arm"], "arm")
    except CandlekitError:  # no earlier report, or one whose names are not safe paths
        return
    names, pairs = {r["dataset"] for r in rows}, {(r["dataset"], r["arm"]) for r in rows}
    for r in old:
        if r["dataset"] not in names:
            for d in (r["dataset"], f".{r['dataset']}.tmp"):
                shutil.rmtree(out_root / "datasets" / d, ignore_errors=True)
        if "checkpoint" in r and (r["dataset"], r["arm"]) not in pairs:
            (out_root / "checkpoints" / f"{r['dataset']}__{r['arm']}.ckpt").unlink(missing_ok=True)


def _build(man: ExperimentManifest, name: str, out_root: Path) -> Path | str:
    """One dataset's directory, or the error that marks its pairs failed."""
    try:
        return build_dataset(man, name, out_root)
    except Exception as exc:  # per-dataset isolation
        return f"{type(exc).__name__}: {exc}"


def _pair(man: ExperimentManifest, dirs: dict[str, Path], ds_name: str, arm: ArmSpec,
          out_root: Path, broken: str | None) -> dict:
    """One (dataset, arm) pair's report row; ``broken`` is a failed member's build error."""
    if broken is not None:
        return _arm_row(ds_name, arm, error=broken)
    try:
        return run_arm(man, dirs, ds_name, arm, out_root).row
    except Exception as exc:  # per-arm isolation
        return _arm_row(ds_name, arm, error=f"{type(exc).__name__}: {exc}")


def _exit_with(parent: int) -> None:
    """Pool worker initializer: end this worker within about 0.5 s of ``parent``'s death, which it
    would not see otherwise: it holds both ends of the job queue's pipe, so it never reads EOF."""
    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def run_experiment(man: ExperimentManifest, out_dir: str | Path | None = None) -> ExperimentReport:
    """Every dataset x arm, with per-arm error isolation; writes reports.

    Workers are forked, so a child re-imports nothing and a script that calls this
    without a ``__main__`` guard is not rerun in each. No worker outlives the call or a
    killed caller; an interrupt inside a job, or a worker's death, raises here.
    """
    import concurrent.futures
    import multiprocessing

    out_root = Path(out_dir) if out_dir is not None else Path(man.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    names = [ds.name for ds in man.datasets if not ds.is_merge]
    ds_names = [ds.name for ds in man.datasets for _ in man.arms]
    arms = [arm for _ in man.datasets for arm in man.arms]
    workers = min(len(os.sched_getaffinity(0)), max(len(names), len(arms)))
    fork = multiprocessing.get_context("fork")
    pool = (concurrent.futures.ProcessPoolExecutor(workers, mp_context=fork, initializer=_exit_with,
                                                   initargs=(os.getpid(),)) if workers > 1 else None)
    try:
        run = pool.map if pool is not None else map
        built = dict(zip(names, run(_build, repeat(man), names, repeat(out_root))))
        dirs = {n: d for n, d in built.items() if isinstance(d, Path)}
        broken = [next((built[m] for m in _members(man, d) if m not in dirs), None) for d in ds_names]
        rows = list(run(_pair, repeat(man), repeat(dirs), ds_names, arms, repeat(out_root), broken))
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
    _remove_stale(out_root, rows)

    report = ExperimentReport(
        rows=rows,
        environment={
            "package": "candlekit",
            "version": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "master_seed": man.master_seed,
        },
    )
    md, js = render_report(report)
    write_atomic(out_root / "report.json", js)
    write_atomic(out_root / "report.md", md)
    return report


def _fmt(v: float | None, what: str) -> str:
    return "n/a" if v is None else f"{_expect(v, float, what):.3f}"


def render_report(report: ExperimentReport) -> tuple[str, str]:
    """(markdown, json) renderings; markdown metrics use 3 decimals. A printed metric that
    is not a finite number, or a count or seed that is not an int, raises ManifestError."""
    lines = ["# Experiment report", ""]
    env = report.environment
    lines.append(
        f"candlekit {env['version']} | python {env['python']} | numpy {env['numpy']} "
        f"| master seed {_expect(env['master_seed'], int, 'master_seed')}"
    )
    arms = []
    for r in report.rows:
        if r["arm"] not in arms:
            arms.append(r["arm"])
    for arm in arms:
        arm_rows = [r for r in report.rows if r["arm"] == arm]
        head = arm_rows[0]
        lines.append("")
        lines.append(
            f"## Arm `{arm}` ({head['model']}, "
            f"{'with' if head['include_pattern'] else 'without'} pattern stream)"
        )
        lines.append("")
        lines.append("| Dataset | Accuracy | F1 | AUC |")
        lines.append("|---|---|---|---|")
        for r in arm_rows:
            if r["status"] != "ok":
                lines.append(f"| {r['dataset']} | error: {r['error']} | | |")
                continue
            m = r["metrics"]
            shown = " | ".join(_fmt(m[k], f"metric {k}") for k in ("accuracy", "f1", "auc"))
            lines.append(f"| {r['dataset']} | {shown} |")
    lines.append("")
    lines.append("## Sample counts")
    lines.append("")
    lines.append("| Dataset | Arm | n | train/val/test | strong/weak |")
    lines.append("|---|---|---|---|---|")
    for r in report.rows:
        if r["status"] != "ok":
            lines.append(f"| {r['dataset']} | {r['arm']} | - | - | - |")
            continue
        cb = r["class_balance"]
        n, tr, va, te, strong, weak = (_expect(v, int, "a sample count") for v in (
            r["n_samples"], r["n_train"], r["n_val"], r["n_test"], cb["strong"], cb["weak"]))
        lines.append(f"| {r['dataset']} | {r['arm']} | {n} | {tr}/{va}/{te} | {strong}/{weak} |")
    md = "\n".join(lines) + "\n"
    js = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    return md, js
