"""Command-line front end over the library.

Subcommands: build-dataset, detect, render, decompose, train, eval,
experiment, report. Every subcommand but report accepts --manifest, and
every one but report and decompose accepts --seed; --seed and --out
override the manifest's master_seed and output_dir. render --window and
decompose --k/--stride default to the manifest's (or the default) model section.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .decompose import subcharts
from .errors import CandlekitError, ManifestError
from .experiment import (
    ExperimentManifest,
    ModelSettings,
    _members,
    build_dataset,
    evaluate_checkpoint,
    load_manifest,
    load_report,
    render_report,
    run_arm,
    run_experiment,
)
from .fileio import read_input, write_atomic
from .market_data import Series, parse_csv, synth_series, window
from .patterns import PatternRuleParams, detect_all
from .raster import RenderSpec, read_ppm, render_window, write_ppm
from .rng import MAX_SEED


def u64(text: str) -> int:
    """A seed: an integer in [0, 2^64). argparse names the flag when this raises."""
    if not 0 <= (seed := int(text)) <= MAX_SEED:
        raise argparse.ArgumentTypeError(f"must be in [0, 2^64), got {seed}")
    return seed


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--manifest", type=Path, help="experiment manifest (JSON)")
    if seed:
        p.add_argument("--seed", type=u64, help="override the manifest master seed")


def _manifest(args) -> ExperimentManifest | None:
    if args.manifest is None:
        return None
    man = load_manifest(args.manifest)
    if getattr(args, "seed", None) is not None:
        man.master_seed = args.seed
    if getattr(args, "out", None) is not None:
        man.output_dir = str(args.out)
    return man


def _require_manifest(args) -> ExperimentManifest:
    man = _manifest(args)
    if man is None:
        raise ManifestError("this subcommand needs --manifest")
    return man


def _series_from_args(args, man: ExperimentManifest | None) -> Series:
    if args.csv is not None:
        return parse_csv(read_input(args.csv, "csv"), symbol=args.symbol or args.csv.stem)
    if args.synth is not None:
        seed = args.seed if args.seed is not None else (man.master_seed if man else 0)
        return synth_series(seed, args.synth, symbol=args.symbol)
    raise ManifestError("provide --csv or --synth")


def _cmd_build_dataset(args) -> int:
    man = _require_manifest(args)
    names = [args.name] if args.name else [d.name for d in man.datasets if not d.is_merge]
    for name in names:
        path = build_dataset(man, name)
        print(path)
    return 0


def _cmd_detect(args) -> int:
    man = _manifest(args)
    params = man.pattern_params if man else PatternRuleParams()
    series = _series_from_args(args, man)
    for m in detect_all(series, params):
        print(json.dumps(m.to_dict(), sort_keys=True))
    return 0


def _cmd_render(args) -> int:
    man = _manifest(args)
    spec = man.render_spec if man else RenderSpec()
    series = _series_from_args(args, man)
    end_index = args.end_index if args.end_index is not None else len(series) - 1
    if not 0 <= end_index < len(series):
        raise ManifestError(f"--end-index must be in [0, {len(series)}), got {end_index}")
    ms = man.model_settings if man else ModelSettings()
    w = args.window if args.window is not None else ms.window
    if not 1 <= w <= end_index + 1:
        raise ManifestError(f"--window must be in [1, {end_index + 1}] to end at candle {end_index}, got {w}")
    img = render_window(window(series, end_index, w), spec)
    write_atomic(args.out, write_ppm(img))
    print(args.out)
    return 0


def _cmd_decompose(args) -> int:
    man = _manifest(args)
    spec = man.render_spec if man else RenderSpec()
    img = read_ppm(read_input(args.image, "image", Path.read_bytes))
    out_dir = args.out_dir or args.image.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    ms = man.model_settings if man else ModelSettings()
    k = args.k if args.k is not None else ms.subchart_k
    stride = args.stride if args.stride is not None else ms.subchart_stride
    for i, crop in enumerate(subcharts(img, spec, k=k, stride=stride)):
        path = out_dir / f"{args.image.stem}.sub{i}.ppm"
        write_atomic(path, write_ppm(crop))
        print(path)
    return 0


def _find_arm(man: ExperimentManifest, name: str):
    arm = next((a for a in man.arms if a.arm_name == name), None)
    if arm is None:
        raise ManifestError(f"arm {name!r} not in manifest")
    return arm


def _cmd_train(args) -> int:
    man = _require_manifest(args)
    arm = _find_arm(man, args.arm)
    out_root = Path(man.output_dir)
    dirs = {m: build_dataset(man, m) for m in _members(man, args.dataset)}
    outcome = run_arm(man, dirs, args.dataset, arm, out_root)
    run_dir = out_root / "train" / f"{args.dataset}__{arm.arm_name}"
    run_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(run_dir / "train_report.json", outcome.train_report.to_json())
    write_atomic(run_dir / "row.json", json.dumps(outcome.row, sort_keys=True, indent=2) + "\n")
    print(json.dumps(outcome.row, sort_keys=True, indent=2))
    return 0


def _cmd_eval(args) -> int:
    man = _require_manifest(args)
    rep = evaluate_checkpoint(man, args.dataset, _find_arm(man, args.arm), args.checkpoint)
    print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    man = _require_manifest(args)
    report = run_experiment(man)
    out_root = Path(man.output_dir)
    print(out_root / "report.md")
    print(out_root / "report.json")
    return 0 if report.all_ok() else 1


def _cmd_report(args) -> int:
    md, _js = render_report(load_report(args.report_json))
    if args.out_dir is not None:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(args.out_dir / "report.md", md)
        print(args.out_dir / "report.md")
    else:
        print(md, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="candlekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset", help="detect, label, and render one or all datasets")
    _add_common(p)
    p.add_argument("--name", help="dataset name (default: all concrete datasets)")
    p.add_argument("--out", type=Path, help="override output_dir")
    p.set_defaults(fn=_cmd_build_dataset)

    p = sub.add_parser("detect", help="print pattern matches as JSON lines")
    _add_common(p)
    p.add_argument("--csv", type=Path, help="input OHLC CSV")
    p.add_argument("--synth", type=int, metavar="N", help="use an N-candle synthetic series")
    p.add_argument("--symbol", help="symbol name for the series")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("render", help="render a candle window to a PPM file")
    _add_common(p)
    p.add_argument("--csv", type=Path)
    p.add_argument("--synth", type=int, metavar="N")
    p.add_argument("--symbol")
    p.add_argument("--end-index", type=int, help="window end (default: last candle)")
    p.add_argument("--window", type=int, help="candles drawn (default: the model's window)")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("decompose", help="cut a chart PPM into k-candle sub-charts")
    _add_common(p, seed=False)
    p.add_argument("--image", type=Path, required=True)
    p.add_argument("--k", type=int, help="candles per sub-chart (default: the model's subchart_k)")
    p.add_argument("--stride", type=int, help="sub-chart step (default: the model's subchart_stride)")
    p.add_argument("--out-dir", type=Path)
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("train", help="train one (dataset, arm) pair")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--arm", required=True)
    p.add_argument("--out", type=Path, help="override output_dir")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate an arm's checkpoint on the test partition")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--arm", required=True)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("experiment", help="run every dataset x arm and write reports")
    _add_common(p)
    p.add_argument("--out", type=Path, help="override output_dir")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("report", help="re-render markdown from a report.json")
    p.add_argument("--report-json", type=Path, required=True)
    p.add_argument("--out-dir", type=Path)
    p.set_defaults(fn=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CandlekitError, OSError) as exc:  # bad input, or an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
