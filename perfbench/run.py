"""candlekit benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload train_planted --seed 7 --seconds 45 --trace 0

Run from the root of a checkout; candlekit is imported from its ``src/``.
The run sets up three times and reports the medians: the import of
candlekit (here and in two fresh interpreters that only import), and the
generated inputs and model. It then runs timed passes one after another
from a single client until the next pass would end past ``--seconds`` (at
least the workload's minimum number of passes). Outputs are checked after each pass, outside
the timed region. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones and no wrapper is
installed. With ``--trace 1`` the run makes one untraced pass, then one
traced pass, and the metrics are per layer; the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json`` under the working
directory. Program outputs go to a scratch directory under ``.perfbench/``
that is removed before the process exits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("train_planted", "experiment_desk", "dataset_roundtrip")
SETUP_REPEATS = 3
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """Set what numpy reads at import.

    One BLAS thread: the workloads are single-client loops, BLAS is a small
    share of their time, and a second spinning thread only competes with
    the client for the CPUs. No transparent huge pages for numpy arrays:
    whether the kernel has one free varies from run to run, and with it
    the resident set (by 30 MB on dataset_roundtrip) and the speed.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = {paths!r}; "
    "import workloads; print(time.perf_counter() - t)"
)


def import_probes(n: int) -> list[float]:
    """Seconds to import candlekit and the workloads in ``n`` fresh interpreters."""
    code = IMPORT_PROBE.format(paths=[str(SRC), str(HERE)])
    return [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, check=True).stdout)
        for _ in range(n)
    ]


def import_workloads():
    """Import the workloads and candlekit from this checkout's src/ only."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import candlekit

    if not Path(candlekit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"candlekit came from {candlekit.__file__}, not {SRC}")
    import workloads

    return workloads.WORKLOADS


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numpy_hugepages": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "seed": seed,
    }


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest nearest-rank percentile with at
    least ten samples above it; None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def timing(samples: list[float]) -> dict:
    hi = high_percentile(samples)
    return {
        "median": statistics.median(samples),
        "p_hi": None if hi is None else {"percentile": hi[0], "value": hi[1]},
        "n": len(samples),
    }


class Run:
    """One workload in this process: set-up, timed passes, checks."""

    def __init__(self, args, cls, import_s: float) -> None:
        self.args = args
        self.cls = cls
        self.seed = self.cls.default_seed if args.seed is None else args.seed
        self.scratch = Path.cwd() / ".perfbench" / f"work-{args.workload}-{os.getpid()}"
        self.checks: list[tuple[str, bool]] = []
        self.pass_s: list[float] = []  # untraced passes only
        self.items: list[int] = []
        self.n_passes = 0
        self.pass_cpu: list[float] = []
        setups = []
        import_s = statistics.median([import_s, *import_probes(SETUP_REPEATS - 1)])
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = self.cls(self.seed, self.scratch / f"setup{i}")
            job = wl.prepare()
            setups.append(time.perf_counter() - t0)
        self.wl, self.job = wl, job
        self.import_s = import_s
        self.setup_s = import_s + statistics.median(setups)

    def one_pass(self, tracer=None) -> float:
        """Run, time and check one pass; returns its wall time.

        An exception counts as a failed operation and ends the pass; the
        wall time is then the time until it was raised.
        """
        i = self.n_passes
        self.n_passes += 1
        out_dir = self.scratch / f"pass{i}"
        job = self.job if i == 0 else self.wl.prepare()
        installed = tracer.installed(pass_id=i) if tracer else contextlib.nullcontext()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with installed:
                t0, c0 = time.perf_counter(), time.process_time()
                out = self.wl.run(job, out_dir)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
            self.checks += self.wl.check(out, out_dir)
            self.items.append(self.wl.items(out))
        except Exception:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            traceback.print_exc()
            self.checks.append((f"pass {i} raised", False))
            self.items.append(0)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is None:
            self.pass_s.append(wall)
            self.pass_cpu.append(cpu)
        return wall

    def timed_passes(self) -> None:
        t_loop = time.perf_counter()
        while True:
            last = self.one_pass()
            elapsed = time.perf_counter() - t_loop
            if self.attempted_failed()[1]:
                return
            if len(self.pass_s) >= self.cls.min_passes and elapsed + last > self.args.seconds:
                return

    def attempted_failed(self) -> tuple[int, int]:
        return len(self.checks), sum(1 for _, ok in self.checks if not ok)

    def rates(self) -> list[float]:
        """Items per second of each untraced pass."""
        return [n / t for n, t in zip(self.items, self.pass_s)]


def end_to_end(run: Run) -> dict:
    return {
        "setup_s": {"value": run.setup_s, "unit": "s"},
        "items_per_s": {"value": statistics.median(run.rates()), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_summary(run: Run, env: dict) -> None:
    attempted, failed = run.attempted_failed()
    wall = timing(run.pass_s)
    p_hi = wall["p_hi"]
    print(f"candlekit benchmark: workload={run.args.workload} seed={run.seed} "
          f"trace={run.args.trace} untraced passes={len(run.pass_s)}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    rows = [
        ("setup_s", f"{run.setup_s:.4f} s", f"median of {SETUP_REPEATS} imports "
                                           f"({run.import_s:.4f} s) + median of "
                                           f"{SETUP_REPEATS} input/model set-ups"),
        ("wall_s", f"{wall['median']:.4f} s",
         f"median of n={wall['n']} passes (wall " + " ".join(f"{t:.3f}" for t in run.pass_s)
         + ", cpu " + " ".join(f"{t:.3f}" for t in run.pass_cpu) + "); " + (
             f"p{p_hi['percentile']:.0f} {p_hi['value']:.4f} s" if p_hi
             else "no percentile: fewer than 11 samples")),
    ]
    rows.append((run.cls.rate[0], f"{statistics.median(run.rates()):.2f} 1/s", run.cls.rate[1]))
    rows.append(("peak_rss_mb", f"{peak_rss_mb():.1f} MB", "ru_maxrss of this process"))
    rows.append(("fail_ratio", f"{failed / attempted if attempted else 1.0:.4f}",
                 f"{failed} failed of {attempted} checked operations"))
    for k, v in run.wl.facts().items():
        rows.append((k, str(v), "deterministic output fact"))
    for name, value, note in rows:
        print(f"  {name:<22}{value:<16}{note}")
    for op, ok in run.checks:
        if not ok:
            print(f"  FAILED: {op}")


def traced(run: Run, env: dict) -> dict:
    import tracer as tracing

    untraced_wall = run.one_pass()
    tr = tracing.Tracer()
    wall = run.one_pass(tracer=tr)
    run.checks += run.wl.check_run()
    metrics = tracing.per_layer(tr, wall, untraced_wall)
    units = dict(tracing.per_layer_names())
    out_dir = Path.cwd() / ".perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{run.args.workload}-seed{run.seed}.json"
    path.write_text(json.dumps({
        "workload": run.args.workload,
        "environment": env,
        "span_fields": ["name", "start", "end", "parent", "pass_id", "attrs"],
        "spans": tr.spans,
        "per_layer": metrics,
    }))
    shares = {k: v for k, v in metrics.items() if k.startswith("layer.") or k == "other_s"}
    print("self-time share of the traced pass:")
    for k, v in sorted(shares.items(), key=lambda kv: -kv[1]):
        if v:
            print(f"  {k:<28}{v:10.4f} s  {100 * v / wall:5.1f}%")
    layer_s = {t: metrics[f"nn.{t}.fwd_s"] + metrics[f"nn.{t}.bwd_s"]
               for t in tracing.NN_TYPES.values()}
    arm_s = {a: metrics[f"experiment.run_arm_s.{a}"] for a in tracing.ARMS}
    if any(layer_s.values()):
        top = max(layer_s, key=layer_s.get)
        print(f"largest nn layer (fwd+bwd): {top} {100 * layer_s[top] / wall:.1f}% of the pass")
    if any(arm_s.values()):
        top = max(arm_s, key=arm_s.get)
        print(f"largest arm: {top} {100 * arm_s[top] / wall:.1f}% of the pass")
    if tr.missing:
        print("not traced, name not found: " + ", ".join(sorted(set(tr.missing))))
    print(f"spans written to {path}")
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the acceptance seed)")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_environment()
    t0 = time.perf_counter()
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"error: cannot import candlekit from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    run = None
    try:
        run = Run(args, workloads[args.workload], import_s)
        env = environment(run.seed)
        if args.trace:
            metrics = traced(run, env)
        else:
            run.timed_passes()
            run.checks += run.wl.check_run()
            metrics = end_to_end(run)
        print_summary(run, env)
    except Exception:
        traceback.print_exc()
        print("error: the run did not complete", file=sys.stderr)
        return 1
    finally:
        if run is not None:
            shutil.rmtree(run.scratch, ignore_errors=True)
    attempted, failed = run.attempted_failed()
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
