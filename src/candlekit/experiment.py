"""End-to-end experiment orchestration.

A JSON manifest names datasets (CSV files, synthetic generator specs, or
merges of other entries), a list of arms (model variant plus whether the
pattern stream is fed), and the shared pattern/labeler/render/train/model
configuration. One master seed expands into per-stage sub-seeds via
``derive_seed(master, tag)``, so every output byte (dataset images,
checkpoints, report.json) is a pure function of (manifest, master seed),
and rebuilding without changes rewrites identical files.

In the pattern arm the pattern stream always receives the ground-truth
rendered crop, during training and evaluation alike, never the output of
any detector. Arms are isolated: a failing arm is recorded as an error
row and the remaining (dataset, arm) pairs still run. All paths stored in
reports and dataset manifests are relative, so two runs into different
output directories still produce identical bytes.
"""

from __future__ import annotations

import json
import math
import platform
import re
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .datasets import assemble_subchart_dataset, assemble_training_set
from .errors import BadRow, BadSpec, EmptyDataset, ManifestError, SourceNotFound
from .labeling import LabelerParams, build_samples
from .market_data import Series, SynthParams, parse_csv, synth_series
from .models import (
    EvalReport,
    Model,
    ModelConfig,
    TrainConfig,
    TrainingSet,
    TrainReport,
    batch_inputs,
    build_model,
    evaluate,
    predict,
    split_indices,
    train,
    train_subchart_pipeline,
)
from .nn import load_arrays, save_arrays
from .patterns import PatternRuleParams
from .raster import RenderSpec, render_pattern, render_window, write_ppm
from .rng import derive_seed

ARM_MODELS = ("mini_cnn", "two_stream", "subchart")


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    csv_path: str | None = None
    synth: SynthParams | None = None
    synth_n: int = 0
    members: tuple[str, ...] = ()

    @property
    def is_merge(self) -> bool:
        return bool(self.members)


@dataclass(frozen=True)
class ArmSpec:
    arm_name: str
    model: str
    include_pattern: bool


@dataclass(frozen=True)
class ModelSettings:
    """Input geometry and widths shared by all arms."""

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

    def validate(self) -> None:
        """ManifestError unless every arm can build from these values.

        Each ``*_hw`` is two positive ints, ``subchart_hw`` divisible by 4
        (the CAE halves it twice), widths non-empty and positive, the
        scalar sizes at least 1, ``window`` at least ``subchart_k`` (a
        chart holds at least one sub-chart), and enough sub-charts per chart
        for the CNN1D's ceil(len(block_widths) / 2) halving max-pools.
        """
        for key in ("hist_hw", "pattern_hw", "subchart_hw", "block_widths", "pattern_widths"):
            values = _expect(getattr(self, key), tuple, f"model {key}")
            if not values or any(_expect(v, int, f"model {key} entry") < 1 for v in values):
                raise ManifestError(f"model {key} needs positive entries, got {values!r}")
            if key.endswith("_hw") and len(values) != 2:
                raise ManifestError(f"model {key} must be (height, width), got {values!r}")
        if any(v % 4 for v in self.subchart_hw):
            raise ManifestError(f"model subchart_hw must be divisible by 4, got {self.subchart_hw}")
        for key in ("fc_dim", "latent_dim", "window", "subchart_k", "subchart_stride"):
            if _expect(getattr(self, key), int, f"model {key}") < 1:
                raise ManifestError(f"model {key} must be >= 1, got {getattr(self, key)}")
        if self.window < self.subchart_k:
            raise ManifestError(f"model window {self.window} is shorter than subchart_k {self.subchart_k}")
        seq_len = (self.window - self.subchart_k) // self.subchart_stride + 1
        need = 2 ** math.ceil(len(self.block_widths) / 2)
        if seq_len < need:
            raise ManifestError(
                f"model window {self.window} gives {seq_len} sub-charts; "
                f"{len(self.block_widths)} block widths need at least {need}"
            )


@dataclass
class ExperimentManifest:
    master_seed: int
    output_dir: str
    datasets: list[DatasetSpec]
    arms: list[ArmSpec]
    pattern_params: PatternRuleParams = field(default_factory=PatternRuleParams)
    labeler_params: LabelerParams = field(default_factory=LabelerParams)
    render_spec: RenderSpec = field(default_factory=RenderSpec)
    train_config: TrainConfig = field(default_factory=TrainConfig)
    model_settings: ModelSettings = field(default_factory=ModelSettings)
    base_dir: Path = Path(".")


def _expect(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (a bool is not an int); ManifestError otherwise."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ManifestError(f"{what} must be {kind.__name__}, got {value!r}")
    return value


def _build_dc(cls, payload, what: str, *list_keys: str):
    """``cls(**payload)`` with the lists under ``list_keys`` made tuples."""
    payload = {
        k: tuple(v) if k in list_keys and isinstance(v, list) else v
        for k, v in _expect(payload, dict, f"{what} section").items()
    }
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ManifestError(f"bad {what} section: {exc}") from exc


# Dataset and arm names become path components (``datasets/<name>``,
# ``checkpoints/<dataset>__<arm>.ckpt``): no separator, no ``.``/``..``, and
# no leading dot, so a dataset cannot be another's temp dir.
_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


def _check_name(name, what: str) -> None:
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ManifestError(
            f"{what} name {name!r} must be letters, digits, '_', '-' or '.', not led by '.'"
        )


def manifest_from_dict(doc: dict, base_dir: str | Path = ".") -> ExperimentManifest:
    """Manifest from a parsed JSON document.

    Missing, duplicate or path-unsafe dataset and arm names, wrong types
    for the document, its lists, entries, sections, seed, synth ``n``,
    ``csv_path``, ``include_pattern`` and ``output_dir``,
    a render spec that fails ``RenderSpec.validate`` and model settings
    that fail ``ModelSettings.validate`` raise ManifestError here rather
    than mid-run.
    """
    if "master_seed" not in _expect(doc, dict, "manifest"):
        raise ManifestError("manifest must carry a master_seed")
    datasets: list[DatasetSpec] = []
    names: set[str] = set()
    for entry in _expect(doc.get("datasets", []), list, "datasets"):
        name = _expect(entry, dict, "dataset entry").get("name")
        _check_name(name, "dataset")
        if name in names:
            raise ManifestError(f"dataset entries need unique names, got {name!r}")
        names.add(name)
        kinds = [k for k in ("csv_path", "synth", "members") if k in entry]
        if len(kinds) != 1:
            raise ManifestError(
                f"dataset {name!r} must have exactly one of csv_path/synth/members"
            )
        if "csv_path" in entry:
            csv_path = _expect(entry["csv_path"], str, f"dataset {name!r} csv_path")
            datasets.append(DatasetSpec(name=name, csv_path=csv_path))
        elif "synth" in entry:
            synth = dict(_expect(entry["synth"], dict, f"dataset {name!r} synth"))
            n = synth.pop("n", 0)
            if _expect(n, int, f"dataset {name!r} synth n") < 1:
                raise ManifestError(f"dataset {name!r} synth spec needs n >= 1")
            datasets.append(
                DatasetSpec(name=name, synth=_build_dc(SynthParams, synth, name), synth_n=n)
            )
        else:
            members = tuple(_expect(entry["members"], list, f"merge dataset {name!r} members"))
            if not members:
                raise ManifestError(f"merge dataset {name!r} has no members")
            datasets.append(DatasetSpec(name=name, members=members))
    if not datasets:
        raise ManifestError("manifest declares no datasets")
    concrete = {d.name for d in datasets if not d.is_merge}
    for d in datasets:
        for m in d.members:
            if m not in concrete:
                raise ManifestError(f"merge {d.name!r} references unknown member {m!r}")

    arms: list[ArmSpec] = []
    arm_names: set[str] = set()
    for entry in _expect(doc.get("arms", []), list, "arms"):
        _expect(entry, dict, "arm entry")
        arm = ArmSpec(
            arm_name=entry.get("arm_name", ""),
            model=entry.get("model", "mini_cnn"),
            include_pattern=_expect(entry.get("include_pattern", False), bool, "arm include_pattern"),
        )
        _check_name(arm.arm_name, "arm")
        if arm.arm_name in arm_names:
            raise ManifestError(f"arms need unique names, got {arm.arm_name!r}")
        if arm.model not in ARM_MODELS:
            raise ManifestError(f"arm model must be one of {ARM_MODELS}, got {arm.model!r}")
        arm_names.add(arm.arm_name)
        arms.append(arm)
    if not arms:
        raise ManifestError("manifest declares no arms")
    render_spec = _build_dc(
        RenderSpec, doc.get("render", {}), "render",
        "up_color", "down_color", "wick_color", "background", "annotation_tint",
    )
    try:
        render_spec.validate()
    except (BadSpec, TypeError) as exc:
        raise ManifestError(f"bad render section: {exc}") from exc
    model_settings = _build_dc(
        ModelSettings, doc.get("model", {}), "model",
        "hist_hw", "pattern_hw", "subchart_hw", "block_widths", "pattern_widths",
    )
    model_settings.validate()

    return ExperimentManifest(
        master_seed=_expect(doc["master_seed"], int, "master_seed"),
        output_dir=_expect(doc.get("output_dir", "out"), str, "output_dir"),
        datasets=datasets,
        arms=arms,
        pattern_params=_build_dc(PatternRuleParams, doc.get("pattern", {}), "pattern"),
        labeler_params=_build_dc(LabelerParams, doc.get("labeler", {}), "labeler"),
        render_spec=render_spec,
        train_config=_build_dc(TrainConfig, doc.get("train", {}), "train"),
        model_settings=model_settings,
        base_dir=Path(base_dir),
    )


def read_input(path: str | Path, what: str, read=Path.read_text):
    """``read(path)`` for an input file.

    SourceNotFound when it cannot be read, BadRow when its text does not decode.
    """
    try:
        return read(Path(path))
    except OSError as exc:
        raise SourceNotFound(f"{what} not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise BadRow(f"{what} {path} is not text: {exc}") from exc


def _read_json(path: str | Path, what: str):
    try:
        return json.loads(read_input(path, what, Path.read_bytes))
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ManifestError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_manifest(path: str | Path) -> ExperimentManifest:
    return manifest_from_dict(_read_json(path, "manifest"), base_dir=Path(path).parent)


def _resolve_series(man: ExperimentManifest, ds: DatasetSpec) -> Series:
    if ds.csv_path is not None:
        path = Path(ds.csv_path)
        if not path.is_absolute():
            path = man.base_dir / path
        return parse_csv(read_input(path, f"csv for dataset {ds.name!r}"), symbol=ds.name)
    seed = derive_seed(man.master_seed, f"dataset:{ds.name}")
    return synth_series(seed, ds.synth_n, ds.synth, symbol=ds.name)


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
    ds = next((d for d in man.datasets if d.name == name), None)
    if ds is None:
        raise SourceNotFound(f"dataset {name!r} not in manifest")
    if ds.is_merge:
        raise ManifestError(f"dataset {name!r} is a merge; build its members instead")
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
                    "end_index": s.match.end_index,
                    "kind": s.match.kind.value,
                    "span": s.match.span,
                    "direction": s.match.direction.value,
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


def ensure_datasets(man: ExperimentManifest, out_root: Path | None = None) -> dict[str, Path]:
    """Build every concrete dataset; returns name -> directory."""
    dirs: dict[str, Path] = {}
    for ds in man.datasets:
        if not ds.is_merge:
            dirs[ds.name] = build_dataset(man, ds.name, out_root)
    return dirs


def _member_dirs(man: ExperimentManifest, dirs: dict[str, Path], name: str) -> list[Path]:
    ds = next(d for d in man.datasets if d.name == name)
    if ds.is_merge:
        return [dirs[m] for m in ds.members]
    return [dirs[name]]


def _model_config(man: ExperimentManifest, ds_name: str, arm: ArmSpec) -> ModelConfig:
    """The arm's model config; the subchart pipeline takes its input shapes from the data."""
    ms = man.model_settings
    return ModelConfig(
        variant="cae" if arm.model == "subchart" else arm.model,
        input_shape=(3,) + tuple(ms.hist_hw),
        block_widths=ms.block_widths,
        fc_dim=ms.fc_dim,
        pattern_shape=(3,) + tuple(ms.pattern_hw),
        pattern_widths=ms.pattern_widths,
        latent_dim=ms.latent_dim,
        seed=derive_seed(man.master_seed, f"model:{ds_name}:{arm.arm_name}"),
    )


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


def _training_set(man: ExperimentManifest, dirs: dict[str, Path], ds_name: str, arm: ArmSpec) -> TrainingSet:
    ms = man.model_settings
    return assemble_training_set(
        _member_dirs(man, dirs, ds_name), ms.hist_hw, ms.pattern_hw, include_pattern=arm.include_pattern
    )


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
    """Train and test one (dataset, arm) pair; saves checkpoints."""
    cfg = _model_config(man, ds_name, arm)
    tc = _train_config(man, ds_name, arm)
    (out_root / "checkpoints").mkdir(parents=True, exist_ok=True)
    stem = f"checkpoints/{ds_name}__{arm.arm_name}"
    extra: dict = {}
    if arm.model == "subchart":
        ms = man.model_settings
        sub_ds = assemble_subchart_dataset(
            _member_dirs(man, dirs, ds_name), ms.subchart_hw, man.render_spec,
            k=ms.subchart_k, stride=ms.subchart_stride,
        )
        result = train_subchart_pipeline(sub_ds, tc, cfg)
        model, ts, report = result.cnn1d, result.training_set, result.report
        saved = {f"{stem}__cae.ckpt": result.cae, f"{stem}__cnn1d.ckpt": model}
        extra = {"cae_mse_first": result.cae_epoch_mse[0], "cae_mse_final": result.cae_epoch_mse[-1]}
    else:
        ts = _training_set(man, dirs, ds_name, arm)
        model = build_model(cfg)
        report = train(model, ts, tc)
        saved = {f"{stem}.ckpt": model}
    rep = _test_report(model, ts, tc)
    for rel, m in saved.items():
        save_arrays(out_root / rel, m.arrays())
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
        checkpoints=list(saved),
        **extra,
    )
    return ArmOutcome(row=row, train_report=report)


def evaluate_checkpoint(
    man: ExperimentManifest, ds_name: str, arm: ArmSpec, checkpoint: str | Path
) -> EvalReport:
    """Test-partition metrics of saved classifier weights, split as :func:`run_arm` does."""
    if arm.model == "subchart":
        raise ManifestError("eval supports mini_cnn/two_stream arms; rerun subchart arms via train")
    arrays = load_arrays(checkpoint)
    ts = _training_set(man, ensure_datasets(man), ds_name, arm)
    model = build_model(_model_config(man, ds_name, arm))
    model.set_arrays(arrays)
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

    A document :func:`render_report` cannot render (a missing key or a value
    of the wrong type) raises ManifestError.
    """
    doc = _read_json(path, "report")
    if not isinstance(doc, dict) or not {"rows", "environment"} <= doc.keys():
        raise ManifestError(f"report {path} needs 'rows' and 'environment'")
    report = ExperimentReport(rows=doc["rows"], environment=doc["environment"])
    try:
        render_report(report)
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"report {path} cannot be rendered: {exc!r}") from exc
    return report


def run_experiment(man: ExperimentManifest, out_dir: str | Path | None = None) -> ExperimentReport:
    """Every dataset x arm, with per-arm error isolation; writes reports."""
    out_root = Path(out_dir) if out_dir is not None else Path(man.output_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    dirs: dict[str, Path] = {}
    build_errors: dict[str, str] = {}
    for ds in man.datasets:
        if ds.is_merge:
            continue
        try:
            dirs[ds.name] = build_dataset(man, ds.name, out_root)
        except Exception as exc:  # per-dataset isolation
            build_errors[ds.name] = f"{type(exc).__name__}: {exc}"

    rows: list[dict] = []
    for ds in man.datasets:
        broken = build_errors.get(ds.name) or next(
            (build_errors[m] for m in ds.members if m in build_errors), None
        )
        for arm in man.arms:
            if broken is not None:
                rows.append(_arm_row(ds.name, arm, error=broken))
                continue
            try:
                rows.append(run_arm(man, dirs, ds.name, arm, out_root).row)
            except Exception as exc:  # per-arm isolation
                rows.append(_arm_row(ds.name, arm, error=f"{type(exc).__name__}: {exc}"))

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
    (out_root / "report.json").write_text(js)
    (out_root / "report.md").write_text(md)
    return report


def _fmt(v: float | None) -> str:
    return "n/a" if v is None else f"{v:.3f}"


def render_report(report: ExperimentReport) -> tuple[str, str]:
    """(markdown, json) renderings; markdown metrics use 3 decimals."""
    lines = ["# Experiment report", ""]
    env = report.environment
    lines.append(
        f"candlekit {env['version']} | python {env['python']} | numpy {env['numpy']} "
        f"| master seed {env['master_seed']}"
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
            lines.append(
                f"| {r['dataset']} | {_fmt(m['accuracy'])} | {_fmt(m['f1'])} | {_fmt(m['auc'])} |"
            )
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
        lines.append(
            f"| {r['dataset']} | {r['arm']} | {r['n_samples']} "
            f"| {r['n_train']}/{r['n_val']}/{r['n_test']} | {cb['strong']}/{cb['weak']} |"
        )
    md = "\n".join(lines) + "\n"
    js = json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    return md, js
