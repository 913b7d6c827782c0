"""Command-line entry point.

Commands: synth, train, kfold, ablate, check, report. ``synth --verify``
reads back the data file and the dy/dt file it wrote and, on noise-free
data, runs ``check``'s residual-free oracle (``suites.residual_free``) on
them. Exit codes are a stable contract: 0 success, 1 verification/acceptance
failure, 2 configuration or data error (an output that cannot be written, a
run that does not fit in memory and a worker process that dies included), 3
numeric failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .data import (
    ddt_sibling_path,
    load_csv,
    load_ddt_csv,
    stratified_kfold,
    synth_generate,
    write_csv,
    write_ddt_csv,
    write_text_atomic,
)
from .errors import ConfigError, DataFormatError, NumericError
from .model import checkpoint_text
from .objective import physics_residual
from .reporting import (
    ablation_csv,
    ablation_table,
    comparison_csv,
    confusion_csv,
    curves_csv,
    metrics_csv,
    params_csv,
    render_csv_file,
)
from .suites import residual_free, run_all_suites
from .trainer import run_fold, run_kfold

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _load_dataset(cfg: RunConfig):
    if cfg.input_path is not None:
        return load_csv(cfg.input_path)
    return synth_generate(cfg.synth)[0]


def cmd_synth(cfg: RunConfig, out: Path, verify: bool) -> int:
    data, dydt = synth_generate(cfg.synth)
    csv_path = out / "data.csv"
    write_csv(data, csv_path)
    write_ddt_csv(dydt, ddt_sibling_path(csv_path))
    manifest = {
        "seed": cfg.seed,
        "n": cfg.synth.n,
        "noise": cfg.synth.noise,
        "true_physics": {
            "alpha0": cfg.synth.alpha0,
            "beta": cfg.synth.beta.tolist(),
            "gamma": cfg.synth.gamma,
        },
        "y0": cfg.synth.y0,
        "t_range": [cfg.synth.t_min, cfg.synth.t_max],
        "synth_seed": cfg.synth.seed,
    }
    write_text_atomic(out / "manifest.json", json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"wrote {csv_path} ({len(data)} rows), {ddt_sibling_path(csv_path).name}, manifest.json")
    if verify:
        reloaded = load_csv(csv_path)
        dydt = load_ddt_csv(ddt_sibling_path(csv_path), len(reloaded))
        if cfg.synth.noise == 0.0:
            result = residual_free(reloaded, dydt, cfg.synth.physics())
            print(f"residual-free check: {result.detail}: {'PASS' if result.passed else 'FAIL'}")
            return EXIT_OK if result.passed else EXIT_CHECK_FAILED
        r = physics_residual(dydt, reloaded.y, reloaded.e, cfg.synth.physics())
        print(f"residual check (noise sigma={cfg.synth.noise}): max |r| = {float(np.max(np.abs(r))):.3e}")
    return EXIT_OK


def _write_fold_tables(out: Path, reports) -> None:
    write_text_atomic(out / "metrics.csv", metrics_csv(reports))
    write_text_atomic(out / "curves.csv", curves_csv(reports))
    write_text_atomic(out / "params.csv", params_csv(reports))
    write_text_atomic(out / "confusion.csv", confusion_csv(reports))


def cmd_train(cfg: RunConfig, out: Path) -> int:
    data = _load_dataset(cfg)
    tr_idx, va_idx = stratified_kfold(data, cfg.train.k, cfg.train.seed)[0]
    report, params = run_fold(data.subset(tr_idx), data.subset(va_idx), cfg.train, cfg.model)
    _write_fold_tables(out, [report])
    write_text_atomic(out / "checkpoint.json", checkpoint_text(params))
    print(f"trained 1 holdout split ({len(tr_idx)} train / {len(va_idx)} valid) -> {out}")
    print(render_csv_file(out / "metrics.csv"))
    return EXIT_OK


def cmd_kfold(cfg: RunConfig, out: Path, threads: int) -> int:
    data = _load_dataset(cfg)
    reports, models = run_kfold(data, cfg.train, cfg.model, threads=threads)
    _write_fold_tables(out, reports)
    for report, params in zip(reports, models):
        write_text_atomic(out / f"fold_{report.fold}.ckpt.json", checkpoint_text(params))
    # a reused --out keeps only this run's checkpoints: fold_<n> outside 1..k goes
    for path in out.glob("fold_*.ckpt.json"):
        index = re.fullmatch(r"fold_([0-9]+)\.ckpt\.json", path.name)
        if index and not 1 <= int(index[1]) <= cfg.train.k:
            path.unlink()
    print(f"{cfg.train.k}-fold run complete -> {out}")
    print(render_csv_file(out / "metrics.csv"))
    return EXIT_OK


def cmd_ablate(cfg: RunConfig, out: Path, threads: int) -> int:
    data = _load_dataset(cfg)
    rows, _reports = ablation_table(data, cfg.ablate_variants, cfg.model, cfg.train, threads)
    write_text_atomic(out / "ablation.csv", ablation_csv(rows))
    write_text_atomic(out / "comparison.csv", comparison_csv(rows))
    print(f"ablation over {len(rows)} variants -> {out}")
    print(render_csv_file(out / "ablation.csv"))
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    results = run_all_suites(cfg.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  {verdict}  {r.detail}")
        print(f"{r.name}: {r.seconds:.2f}s", file=sys.stderr)
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} suite(s) failed")
        return EXIT_CHECK_FAILED
    print("all suites passed")
    return EXIT_OK


def cmd_report(out: Path) -> int:
    known = ["metrics.csv", "ablation.csv", "comparison.csv", "params.csv", "confusion.csv"]
    found = [name for name in known if (out / name).exists()]
    if not found:
        raise ConfigError(f"no report files among {known} in {out}")
    for name in found:
        print(f"== {name} ==")
        print(render_csv_file(out / name))
        print()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edapinn",
        description="Multi-task physics-informed network for EDA regression and emotion classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=False):
        p.add_argument("--config", type=Path, default=None, help="JSON run config (default: all defaults)")
        p.add_argument("--out", type=Path, default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
        if threads:
            p.add_argument(
                "--threads",
                type=int,
                default=1,
                help="worker processes (default 1); the folds train as a few stacks of networks: "
                "enough to fill the workers, none with more networks than one fold of every variant",
            )

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    common(p)
    p.add_argument("--verify", action="store_true", help="check the written file against the dynamics")
    p = sub.add_parser("train", help="train on one split, holding out fold 1 of train.k stratified folds")
    common(p)
    p = sub.add_parser("kfold", help="run stratified k-fold cross-validation")
    common(p, threads=True)
    p = sub.add_parser("ablate", help="run the ablation table (variants + baselines)")
    common(p, threads=True)
    p = sub.add_parser("check", help="run the verification suites")
    common(p)
    p = sub.add_parser("report", help="pretty-print emitted CSV tables")
    p.add_argument("--out", type=Path, required=True, help="directory holding the CSV outputs")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.out)
        cfg = load_config(args.config, args.seed)
        out = args.out if args.out is not None else Path(cfg.output_dir)
        if args.command in ("train", "kfold", "ablate"):
            # before any training: an --out that cannot be made fails at once,
            # and a bad --threads, checked first, leaves no directory behind
            if getattr(args, "threads", 1) < 1:
                raise ConfigError(f"threads must be >= 1, got {args.threads}")
            out.mkdir(parents=True, exist_ok=True)
        if args.command == "synth":
            return cmd_synth(cfg, out, args.verify)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "kfold":
            return cmd_kfold(cfg, out, args.threads)
        if args.command == "ablate":
            return cmd_ablate(cfg, out, args.threads)
        if args.command == "check":
            return cmd_check(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # inputs are read through data.read_text, which raises the errors
        # above, so an OSError comes from writing the outputs
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        # a pool whose worker dies (killed, say, when memory runs out) raises
        # BrokenProcessPool; its module loads only with a pool, so it is looked
        # up here rather than imported at every start
        pool = sys.modules.get("concurrent.futures.process")
        if pool is None or not isinstance(exc, pool.BrokenProcessPool):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
