"""Benchmark of the edapinn toolkit: end-to-end and per-module numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ablate-seq --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py for why each was chosen): ablate-seq and
kfold-par, listed in BENCHMARK.json, and check, runnable by name but not
listed while the program's own suites fail at some seeds. Every operation of
a run is checked for correctness; a failed operation is counted, never
hidden.

With ``--trace 0`` the run repeats the workload's operation untraced for
``--seconds`` seconds (at least twice) and prints the end-to-end metrics:
the median operation time, the median of several set-ups (a cold import of
the package in a fresh interpreter plus the workspace preparation), the
training throughput, peak resident memory, ``success_ratio`` (1 minus the
failed share of operations; a ratio that reads 0 on a healthy run cannot be
bounded as a share of its median) and the deterministic quality of the
``full`` variant. The ``check`` workload trains no multi-task model: its
throughput counts the physics-recovery descent (steps x samples) and its
quality metrics are fixed placeholders.
With ``--trace 1`` it alternates untraced and traced operations; the traced
ones record spans around every public function of every module (spans.py)
and the run prints the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
records the environment and the source/test line counts. The full record,
including failure reasons, is written under perfbench/work/results/, and
traced runs also write their spans there.

BLAS and OpenMP thread counts are pinned to 1 for the benchmark's own
processes, so that every commit is measured under the same settings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 7
MIN_OPS = 2  # two operations of one seed make the determinism check possible

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "eda_pearson_r": "1",
    "emotion_f1": "1",
    "eda_rmse": "1",
}
# per-layer metrics: inclusive microseconds per call, calls per traced
# operation, self seconds per traced operation for every module
US_PER_CALL = [
    "autodiff.affine_forward",
    "autodiff.affine_backward",
    "autodiff.batchnorm_forward",
    "autodiff.batchnorm_backward",
    "autodiff.swish_forward",
    "autodiff.swish_backward",
    "autodiff.dropout_forward",
    "autodiff.dropout_backward",
    "autodiff.sigmoid_forward",
    "autodiff.sigmoid_backward",
    "autodiff.make_dropout_mask",
    "rng.Pcg32.u32_array",
    "rng.Pcg32.permutation",
    "model.forward",
    "model.backward",
    "model.checkpoint_text",
    "objective.total_loss",
    "objective.loss_gradients",
    "trainer.batch_gradients",
    "trainer.adam_step",
    "trainer.train_epoch",
    "trainer.run_fold",
    "trainer.recover_physics",
    "data.synth_generate",
    "data.load_csv",
    "data.stratified_kfold",
    "data.fit_normalizer",
    "data.apply_normalizer",
    "data.rk4_integrate",
    "evaluation.regression_metrics",
    "evaluation.classification_metrics",
    "baselines.baseline_rows",
    "reporting.write_text_atomic",
    "gradcheck.check_gradients",
    "suites.suite_gradient_check",
    "suites.suite_tangent_check",
    "suites.suite_ode_oracle",
    "suites.suite_residual_free",
    "suites.suite_recovery",
    "suites.suite_metric_oracles",
    "suites.suite_stratification",
    "config.load_config",
]
CALLS = [
    "autodiff.affine_forward",
    "autodiff.sigmoid",
    "rng.Pcg32.u32_array",
    "model.forward",
    "model.backward",
    "data.synth_generate",
    "data.load_csv",
    "data.stratified_kfold",
    "data.fit_normalizer",
    "data.apply_normalizer",
    "data.rk4_integrate",
    "reporting.write_text_atomic",
]


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.us_per_call": "us" for n in US_PER_CALL}
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units["trainer.fold_overlap"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


def layer_metrics(summary: dict, traced_ops: int, overhead: float) -> dict[str, float]:
    calls, total = summary["calls"], summary["total_s"]
    out = {}
    for n in US_PER_CALL:
        out[f"{n}.us_per_call"] = total[n] / calls[n] * 1e6 if calls.get(n) else 0.0
    for n in CALLS:
        out[f"{n}.calls"] = calls.get(n, 0) / traced_ops
    for m in MODULES:
        out[f"{m}.self_s"] = summary["module_self_s"].get(m, 0.0) / traced_ops
    # summed run_fold spans over the run_kfold span: about 1 sequential,
    # up to the thread count when folds overlap
    kfold = total.get("trainer.run_kfold", 0.0)
    out["trainer.fold_overlap"] = total.get("trainer.run_fold", 0.0) / kfold if kfold else 0.0
    out["trace_overhead"] = overhead
    return out


# ---------------------------------------------------------------------------
# environment and size records (informational, not gated)
# ---------------------------------------------------------------------------


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "git_commit": git_commit(root),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def line_counts(root: Path) -> dict[str, int]:
    counts = {}
    for key, sub in (("src", "src"), ("tests", "tests")):
        files = sorted((root / sub).rglob("*.py"))
        counts[f"{key}_files"] = len(files)
        counts[f"{key}_lines"] = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)
    return counts


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def measure_setup(wl, src: Path) -> float:
    """Median of: a cold ``import edapinn.cli`` in a fresh interpreter plus
    the workload's workspace preparation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import edapinn.cli"], env=env, check=True)
        wl.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(args, root: Path, work: Path = HERE / "work") -> tuple[dict, dict]:
    src = root / "src"
    wl = WORKLOADS[args.workload](args.seed, work / args.workload)
    setup_s = measure_setup(wl, src)

    tracer = Tracer() if args.trace else None
    walls: dict[bool, list[float]] = {False: [], True: []}
    failures: list[str] = []
    attempted = failed = 0
    t_start = time.perf_counter()
    while attempted < MIN_OPS or time.perf_counter() - t_start < args.seconds:
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.install()
        t_op = time.perf_counter()
        try:
            wall, fails = wl.run_op(attempted)
        except Exception:  # a raw exception from the program is a failed operation
            wall, fails = time.perf_counter() - t_op, [traceback.format_exc()]
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        failures += [f"op {attempted}: {f}" for f in fails]
        failed += bool(fails)
        attempted += 1

    if tracer is None:
        wall_s = statistics.median(walls[False])
        metrics = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "train_samples_per_s": wl.samples_per_op / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": (attempted - failed) / attempted,
            **{k: wl.quality.get(k, 0.0) for k in ("eda_pearson_r", "emotion_f1", "eda_rmse")},
        }
        units = END_TO_END_UNITS
        extra = {}
    else:
        traced_ops = len(walls[True])
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        summary = tracer.summary()
        metrics = layer_metrics(summary, traced_ops, overhead)
        units = per_layer_units()
        extra = {
            "traced_ops": traced_ops,
            "module_self_s_by_thread": summary["module_self_s_by_thread"],
            "spans": len(tracer),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(root),
        "lines": line_counts(root),
        "op_walls_s": walls[False],
        "traced_op_walls_s": walls[True],
        "failures": failures,
        **extra,
        "result": result,
    }
    out = work / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(out / f"{stem}.spans.csv.gz")
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path.cwd()
    src = root / "src"
    if not (src / "edapinn" / "__init__.py").is_file():
        print(f"perfbench: no edapinn sources under {src}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import edapinn

    if Path(edapinn.__file__).resolve().parent != (src / "edapinn").resolve():
        print(f"perfbench: edapinn imported from {edapinn.__file__}, not {src}", file=sys.stderr)
        return 2

    result, record = run(args, root)
    for f in record["failures"]:
        print(f"perfbench: {f}", file=sys.stderr)
    print(json.dumps({"env": record["env"], "lines": record["lines"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
