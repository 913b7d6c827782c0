"""CLI commands, config strictness, output formats and exit codes."""

import json
import multiprocessing
import os
import re
import signal
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edapinn import suites
from edapinn.cli import main
from edapinn.config import RunConfig, load_config, parse_config
from edapinn.data import SynthSpec, synth_generate, write_csv
from edapinn.errors import ConfigError
from edapinn.model import ModelConfig
from edapinn.trainer import TrainRunConfig


def write_config(tmp_path: Path, doc: dict) -> Path:
    p = tmp_path / "run.json"
    p.write_text(json.dumps(doc))
    return p


SMALL_SYNTH = {"n": 300, "noise": 0.01}
SMALL_TRAIN = {"epochs": 2, "batch_size": 64, "k": 3}


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_empty_config_is_valid():
    cfg = parse_config({})
    assert cfg.train.epochs == 50
    assert cfg.train.batch_size == 128
    assert cfg.train.lr == 0.001
    assert cfg.model.hidden == [64, 64]
    assert cfg.synth.n == 2000


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError) as exc:
        parse_config({"train": {"epocs": 10}})
    assert "train.epocs" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config({"modle": {}})
    assert "modle" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config({"data": {"synth": {"nois": 0.1}}})
    assert "data.synth.nois" in str(exc.value)


def test_seed_override_changes_derived_seeds():
    a = parse_config({"seed": 1})
    b = parse_config({"seed": 1}, seed_override=2)
    assert a.model.seed != b.model.seed
    assert a.train.seed != b.train.seed
    assert a.synth.seed != b.synth.seed


@pytest.mark.parametrize(
    "doc, argv, named",
    [
        ({"seed": -1}, [], "config key 'seed'"),
        ({"seed": 2**64}, [], "config key 'seed'"),
        ({}, ["--seed", "-1"], "--seed"),
        ({"seed": 3}, ["--seed", str(2**64 + 1)], "--seed"),
    ],
    ids=["config_negative", "config_2_64", "option_negative", "option_2_64_plus_1"],
)
def test_seed_outside_u64_exits_2(tmp_path, capsys, doc, argv, named):
    """A seed the streams would take modulo 2**64 is refused, not run as another."""
    cfg_path = write_config(tmp_path, {**doc, "data": {"synth": SMALL_SYNTH}, "train": SMALL_TRAIN})
    assert main(["kfold", "--config", str(cfg_path), "--out", str(tmp_path / "o"), *argv]) == 2
    assert f"{named} must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_seed_bounds_take_0_and_2_64_minus_1():
    assert parse_config({"seed": 2**64 - 1}).seed == 2**64 - 1
    assert parse_config({"seed": 5}, seed_override=0).seed == 0


def test_input_and_synth_mutually_exclusive():
    with pytest.raises(ConfigError):
        parse_config({"data": {"input": "x.csv", "synth": {"n": 10}}})


def test_bad_types_rejected():
    with pytest.raises(ConfigError):
        parse_config({"train": {"epochs": "fifty"}})
    with pytest.raises(ConfigError):
        parse_config({"model": {"hidden": [64, "x"]}})


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"model": {"lambda_floor": -1.0}}, "lambda floor"),
        ({"model": {"lambda_floor": float("nan")}}, "model.lambda_floor"),
        ({"train": {"lr": float("nan")}}, "train.lr"),
        ({"data": {"synth": {"noise": float("inf")}}}, "data.synth.noise"),
        ({"data": {"synth": {"beta": [1, float("nan"), 2]}}}, "data.synth.beta"),
        ({"data": {"synth": None}}, "data.synth"),
        ({"train": {"batch_size": 1}}, "config key 'train.batch_size': batch size must be >= 8, got 1"),
        ({"model": {"dropout": 1.5}}, "config key 'model.dropout': dropout rate must lie in [0, 1)"),
        ({"data": {"synth": {"stress": {"std": [1, 0, 1]}}}}, "config key 'data.synth.stress.std'"),
        (
            {"data": {"synth": {"t_min": 1.0, "t_max": 0.0}}},
            "config key 'data.synth.t_max': t range must be increasing, got t_min 1.0 and t_max 0.0",
        ),
    ],
    ids=[
        "lambda_floor_negative", "lambda_floor_nan", "lr_nan", "noise_inf", "beta_nan", "synth_null",
        "batch_size_1", "dropout_1_5", "cluster_std_0", "t_range_decreasing",
    ],
)
def test_negative_lambda_floor_rejected_before_running(tmp_path, capsys, doc, named):
    cfg_path = write_config(tmp_path, doc)
    assert main(["check", "--config", str(cfg_path)]) == 2
    assert named in capsys.readouterr().err


def _key_paths(prefix, default):
    for f in fields(default):
        if f.name != "seed":
            yield prefix + (f.name,)
            if is_dataclass(getattr(default, f.name)):
                yield from _key_paths(prefix + (f.name,), getattr(default, f.name))


KEY_PATHS = [
    ("seed",), ("model",), ("train",), ("data",), ("data", "input"), ("data", "synth"),
    ("output",), ("output", "dir"), ("ablate",), ("ablate", "variants"),
    *_key_paths(("model",), ModelConfig()),
    *_key_paths(("train",), TrainRunConfig()),
    *_key_paths(("data", "synth"), SynthSpec()),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.lists(st.tuples(st.sampled_from(KEY_PATHS), JSON_VALUES), min_size=1, max_size=3))
def test_any_json_at_any_key_parses_or_raises_config_error(edits):
    """Any JSON value at any key path either parses or raises ConfigError."""
    doc = {}
    for path, value in edits:
        section = doc
        for key in path[:-1]:
            if not isinstance(section.get(key), dict):
                section[key] = {}
            section = section[key]
        section[path[-1]] = value
    try:
        assert isinstance(parse_config(doc), RunConfig)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# synth command
# ---------------------------------------------------------------------------


def test_synth_writes_expected_rows(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"data": {"synth": {"n": 25}}})
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "data.csv").read_text().strip().splitlines()
    assert len(lines) == 26  # header + n rows
    assert lines[0] == "t,panas_mean,sam_valence,sam_arousal,eda_mean,label"
    ddt = (out / "data.ddt.csv").read_text().strip().splitlines()
    assert ddt[0] == "row,dydt" and len(ddt) == 26
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["true_physics"]["alpha0"] == 1.2


def test_synth_byte_identical_reruns(tmp_path):
    cfg_path = write_config(tmp_path, {"data": {"synth": {"n": 40}}, "seed": 9})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["synth", "--config", str(cfg_path), "--out", str(out1)])
    main(["synth", "--config", str(cfg_path), "--out", str(out2)])
    assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
    assert (out1 / "data.ddt.csv").read_bytes() == (out2 / "data.ddt.csv").read_bytes()


def test_synth_verify_flag_residual_free(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"data": {"synth": {"n": 50, "noise": 0.0}}})
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out), "--verify"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("y0", [0.2, 1e6])
def test_synth_verify_is_relative_to_the_terms_the_residual_cancels(tmp_path, capsys, monkeypatch, y0):
    """Noise-free data passes at any scale (at y0 = 1e6 the residual rounds
    to ~5e-10, one ulp of its terms), and one eda_mean cell moved by a
    relative 1e-9 fails."""
    import edapinn.cli as cli_mod

    cfg_path = write_config(tmp_path, {"data": {"synth": {"n": 2000, "noise": 0.0, "y0": y0}}})
    command = ["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--verify"]
    assert main(command) == 0
    assert "PASS" in capsys.readouterr().out
    real = cli_mod.load_csv

    def perturbed(path):
        data = real(path)
        data.y[0] *= 1.0 + 1e-9
        return data

    monkeypatch.setattr(cli_mod, "load_csv", perturbed)
    assert main(command) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "written, code",
    [(lambda dydt: dydt * np.where(np.arange(len(dydt)) == 0, 1.0 + 1e-9, 1.0), 1), (lambda dydt: dydt[:-1], 2)],
    ids=["one-cell-off-by-a-billionth", "truncated"],
)
def test_synth_verify_reads_back_the_ddt_file_it_wrote(tmp_path, capsys, monkeypatch, written, code):
    import edapinn.cli as cli_mod

    real = cli_mod.write_ddt_csv
    monkeypatch.setattr(cli_mod, "write_ddt_csv", lambda dydt, path: real(written(dydt), path))
    cfg_path = write_config(tmp_path, {"data": {"synth": {"n": 50, "noise": 0.0}}})
    assert main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--verify"]) == code
    captured = capsys.readouterr()
    assert ("FAIL" in captured.out) if code == 1 else ("writes for 50 rows: 49 rows" in captured.err)


# ---------------------------------------------------------------------------
# kfold command
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def kfold_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("kfold")
    cfg_path = write_config(tmp, {"data": {"synth": SMALL_SYNTH}, "train": SMALL_TRAIN})
    out = tmp / "out"
    code = main(["kfold", "--config", str(cfg_path), "--out", str(out)])
    return code, out, cfg_path, tmp


def test_kfold_exit_and_files(kfold_run):
    code, out, _, _ = kfold_run
    assert code == 0
    for name in ("metrics.csv", "curves.csv", "params.csv", "confusion.csv"):
        assert (out / name).exists()
    for fold in (1, 2, 3):
        assert (out / f"fold_{fold}.ckpt.json").exists()


def test_kfold_metrics_rows(kfold_run):
    _, out, _, _ = kfold_run
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0] == "fold,eda_rmse,eda_mae,eda_r,accuracy,precision,recall,f1"
    assert len(lines) == 1 + 3 + 1  # header + folds + mean
    assert lines[-1].startswith("mean,")


def test_kfold_mean_row_double_entry(kfold_run):
    _, out, _, _ = kfold_run
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    rows = [list(map(float, ln.split(",")[1:])) for ln in lines[1:-1]]
    mean_row = list(map(float, lines[-1].split(",")[1:]))
    recomputed = np.mean(rows, axis=0)
    assert np.allclose(mean_row, recomputed, atol=1e-15)


def test_kfold_rerun_byte_identical(kfold_run):
    _, out, cfg_path, tmp = kfold_run
    out2 = tmp / "out2"
    assert main(["kfold", "--config", str(cfg_path), "--out", str(out2)]) == 0
    for name in ("metrics.csv", "curves.csv", "params.csv", "confusion.csv",
                 "fold_1.ckpt.json", "fold_2.ckpt.json", "fold_3.ckpt.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_kfold_curves_layout(kfold_run):
    _, out, _, _ = kfold_run
    lines = (out / "curves.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,fold,l_eda,l_emotion,l_physics,lambda_eff"
    assert len(lines) == 1 + 3 * SMALL_TRAIN["epochs"]


def test_kfold_params_layout(kfold_run):
    _, out, _, _ = kfold_run
    lines = (out / "params.csv").read_text().strip().splitlines()
    assert lines[0] == "fold,alpha0,beta1,beta2,beta3,gamma"
    assert len(lines) == 4


def test_kfold_writes_under_output_dir_unless_out_is_given(kfold_run):
    _, out, _, tmp = kfold_run
    configured, flag = tmp / "configured", tmp / "flag"
    (tmp / "outdir").mkdir()
    doc = {"data": {"synth": SMALL_SYNTH}, "train": SMALL_TRAIN, "output": {"dir": str(configured)}}
    cfg_path = write_config(tmp / "outdir", doc)
    assert main(["kfold", "--config", str(cfg_path), "--out", str(flag)]) == 0
    assert (flag / "metrics.csv").read_bytes() == (out / "metrics.csv").read_bytes()
    assert not configured.exists()
    assert main(["kfold", "--config", str(cfg_path)]) == 0
    for name in ("metrics.csv", "curves.csv", "params.csv", "confusion.csv", "fold_3.ckpt.json"):
        assert (configured / name).read_bytes() == (out / name).read_bytes(), name


def test_kfold_on_csv_input(tmp_path):
    synth_cfg = write_config(tmp_path, {"data": {"synth": SMALL_SYNTH}})
    src = tmp_path / "src"
    main(["synth", "--config", str(synth_cfg), "--out", str(src)])
    cfg_path = tmp_path / "run2.json"
    cfg_path.write_text(json.dumps({
        "data": {"input": str(src / "data.csv")},
        "train": SMALL_TRAIN,
    }))
    out = tmp_path / "from_csv"
    assert main(["kfold", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()


def test_kfold_into_a_reused_out_removes_stale_fold_checkpoints(tmp_path):
    out = tmp_path / "out"
    for k in (5, 3):
        cfg_path = write_config(tmp_path, {"data": {"synth": SMALL_SYNTH}, "train": {**SMALL_TRAIN, "k": k}})
        assert main(["kfold", "--config", str(cfg_path), "--out", str(out)]) == 0
        if k == 5:
            for name in ("notes.txt", "fold_x.ckpt.json", "fold_2.json"):
                (out / name).write_text("kept")
    assert sorted(p.name for p in out.glob("fold_*.ckpt.json")) == [
        "fold_1.ckpt.json", "fold_2.ckpt.json", "fold_3.ckpt.json", "fold_x.ckpt.json",
    ]
    assert all((out / name).read_text() == "kept" for name in ("notes.txt", "fold_x.ckpt.json", "fold_2.json"))


def test_kfold_missing_input_exits_2(tmp_path):
    cfg_path = write_config(tmp_path, {"data": {"input": str(tmp_path / "nope.csv")}})
    assert main(["kfold", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2


CSV_HEAD = "t,panas_mean,sam_valence,sam_arousal,eda_mean,label\n"


def csv_rows(labels) -> str:
    return "".join(
        f"{i / 20},{2 + i % 3},{5 + i % 4},{3 + i % 5},{0.1 * i},{lab}\n" for i, lab in enumerate(labels)
    )


UNUSABLE_CSV = {
    "header_only": CSV_HEAD.encode(),
    "one_class": (CSV_HEAD + csv_rows([0] * 20)).encode(),
    "non_utf8": (CSV_HEAD + csv_rows([0, 1] * 10)).encode() + b"0.5,2,5,3,\xff,1\n",
    "tiny_split": (CSV_HEAD + csv_rows([0, 1] * 3)).encode(),  # 4 training rows per fold at k 3
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_CSV))
@pytest.mark.parametrize("command", ["train", "kfold", "ablate"])
def test_unusable_csv_exits_2(tmp_path, capsys, command, case):
    """No rows, a missing class, undecodable bytes and a training split
    smaller than one batch are data errors under every training command,
    never a traceback, a silent one-class fit or a fit on a few rows."""
    csv_path = tmp_path / "d.csv"
    csv_path.write_bytes(UNUSABLE_CSV[case])
    cfg_path = write_config(tmp_path, {"data": {"input": str(csv_path)}, "train": SMALL_TRAIN})
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "command, variants",
    [("train", None), ("kfold", None), ("ablate", ["full", "ridge"]), ("ablate", ["ridge"])],
)
def test_tiny_validation_split_exits_2(tmp_path, capsys, command, variants):
    """20 rows at k 10 leave 2 validation rows per fold, whose Pearson r is
    always 1 or -1: networks and baselines alike refuse to score them."""
    data, _ = synth_generate(SynthSpec(n=20, seed=10))
    assert np.bincount(data.label).tolist() == [10, 10]
    csv_path = tmp_path / "d.csv"
    write_csv(data, csv_path)
    doc = {"data": {"input": str(csv_path)}, "train": {**SMALL_TRAIN, "k": 10}}
    if variants:
        doc["ablate"] = {"variants": variants}
    assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: fold 1 has 2 validation rows; its metrics need at least 8\n"


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(b'{"seed": 3, "output": {"dir": "\xff"}}')
    assert main(["check", "--config", str(cfg_path)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_byte_order_mark_config_loads_the_same_config(tmp_path):
    text = json.dumps({"seed": 3, "train": {"epochs": 4}, "data": {"synth": {"n": 500}}})
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    a, b = load_config(plain), load_config(bom)
    assert (a.seed, a.train.epochs, a.synth.n) == (3, 4, 500)
    np.testing.assert_equal(asdict(a), asdict(b))


# ---------------------------------------------------------------------------
# train / ablate / report / check
# ---------------------------------------------------------------------------


def test_train_writes_checkpoint(tmp_path):
    cfg_path = write_config(tmp_path, {"data": {"synth": SMALL_SYNTH}, "train": SMALL_TRAIN})
    out = tmp_path / "t"
    assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    doc = json.loads((out / "checkpoint.json").read_text())
    assert doc["format_version"] == "1"
    assert doc["normalizer"] is not None


def test_ablate_row_count_and_orderings(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        {
            "data": {"synth": SMALL_SYNTH},
            "train": SMALL_TRAIN,
            "ablate": {"variants": ["full", "no_physics", "eda_only", "emotion_only", "ridge", "logistic"]},
        },
    )
    out = tmp_path / "abl"
    assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "variant,eda_rmse,emotion_f1,pearson_r"
    assert len(lines) == 7  # header + 6 variants
    rows = {ln.split(",")[0]: list(map(float, ln.split(",")[1:])) for ln in lines[1:]}
    assert rows["eda_only"][1] == 0.0  # F1 pinned to zero: no trained classifier
    comp = (out / "comparison.csv").read_text().strip().splitlines()
    assert len(comp) == 4  # header + full, eda_only, emotion_only


@pytest.mark.parametrize(
    "variants", [["nope"], ["full", "full", "ridge"], []], ids=["unknown", "duplicate", "empty"]
)
@pytest.mark.parametrize("command", ["train", "kfold", "ablate"])
def test_ablate_unknown_variant_exits_2(tmp_path, capsys, command, variants):
    """The ablation rows are checked with the rest of the config, under every
    command: an unknown name, a repeat or an empty list exits 2 before any run."""
    cfg_path = write_config(
        tmp_path,
        {"data": {"synth": SMALL_SYNTH}, "train": SMALL_TRAIN, "ablate": {"variants": variants}},
    )
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'ablate.variants'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "kfold", "ablate"])
def test_removed_physics_override_key_exits_2(tmp_path, capsys, command):
    """The flag that dropped physics from emotion_only is gone: which terms
    a variant trains is its objective.VARIANTS row, and the old key is unknown."""
    train = {**SMALL_TRAIN, "emotion_only_no_physics": True}
    cfg_path = write_config(tmp_path, {"data": {"synth": SMALL_SYNTH}, "train": train})
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "'train.emotion_only_no_physics'" in capsys.readouterr().err
    assert not out.exists()


def test_report_renders_tables(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"data": {"synth": SMALL_SYNTH}, "train": SMALL_TRAIN})
    out = tmp_path / "rep"
    main(["kfold", "--config", str(cfg_path), "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "metrics.csv" in text and "eda_rmse" in text


def test_report_empty_dir_exits_2(tmp_path):
    assert main(["report", "--out", str(tmp_path)]) == 2


def test_check_command_passes(capsys):
    """check's draws and formats, byte for byte at seed 1."""
    assert main(["check", "--seed", "1"]) == 0
    assert capsys.readouterr().out == (
        "gradient-check           PASS  max rel error 2.611e-07 (worst block layer0.w, tol 1e-6)\n"
        "tangent-check            PASS  max rel error 1.643e-07 over 100 samples (tol 1e-05)\n"
        "ode-oracle               PASS  max abs error 4.640e-12 over 20 draws (tol 1e-8); "
        "halving ratio 16.1x (need >= 12)\n"
        "residual-free-synthesis  PASS  max |r| / terms 1.710e-16 over 10000 noise-free samples (tol 1e-12)\n"
        "physics-recovery         PASS  max rel error vs the generator's (alpha0, beta) 1.517e-14 "
        "over 2000 noise-free samples (tol 1e-10)\n"
        "metric-oracles           PASS  all brute-force recounts matched (200 instances)\n"
        "stratification           PASS  max deviation from exact proportionality 0.80 samples (tol 1)\n"
        "all suites passed\n"
    )


def test_check_keeps_suite_seconds_off_stdout(capsys, monkeypatch):
    """Timing goes to stderr, so the verdict lines on stdout are the same on
    every run at one seed."""
    fakes = tuple(
        (lambda seed=1, name=name: suites.SuiteResult(name, True, f"seed {seed}", 0.0))
        for name in ("fake-a", "fake-b")
    )
    monkeypatch.setattr(suites, "ALL_SUITES", fakes)
    assert main(["check", "--seed", "5"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "fake-a  PASS  seed 5\nfake-b  PASS  seed 5\nall suites passed\n"
    assert not re.search(r"[0-9]s\b", captured.out)
    lines = captured.err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["fake-a", "fake-b"]
    assert all(re.fullmatch(r"fake-[ab]: [0-9]+\.[0-9]{2}s", line) for line in lines)


def test_numeric_failure_exits_3(tmp_path, capsys):
    cfg_path = write_config(
        tmp_path,
        {"data": {"synth": {"n": 200}}, "train": {"epochs": 2, "batch_size": 64, "k": 3, "lr": 1e120}},
    )
    assert main(["kfold", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_adam_second_moment_overflow_exits_3(tmp_path, capsys):
    """A physics weight of 1e300 overflows Adam's second moment on the first
    step; the run ends with exit 3 rather than training on, frozen."""
    cfg_path = write_config(
        tmp_path, {"model": {"lambda_floor": 1e300}, "train": {"epochs": 2}, "data": {"synth": {"n": 300}}}
    )
    assert main(["kfold", "--seed", "3", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err == (
        "numeric failure: epoch 0, batch 0, fold 1, variant full: "
        "non-finite Adam second moment (the squared gradient overflows)\n"
    )


@pytest.mark.parametrize("command", ["kfold", "ablate"])
def test_numeric_failure_in_a_worker_process_exits_3(tmp_path, capsys, command):
    cfg_path = write_config(
        tmp_path,
        {"data": {"synth": {"n": 200}}, "train": {"epochs": 2, "batch_size": 64, "k": 3, "lr": 1e120}},
    )
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--threads", "2"]
    assert main(argv) == 3
    assert "numeric failure: epoch 0, batch" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kfold", "ablate"])
def test_dead_worker_process_exits_2(tmp_path, capsys, monkeypatch, command):
    import edapinn.trainer as trainer_mod

    real = trainer_mod.run_folds

    def dying(folds, cfg, model_cfg):
        if 2 in [fold.number for fold in folds]:  # only ever in a worker: two threads, three folds
            os.kill(os.getpid(), signal.SIGKILL)
        return real(folds, cfg, model_cfg)

    # every stack of kfold and ablate is one run_folds call; forked workers inherit the patch
    monkeypatch.setattr(trainer_mod, "run_folds", dying)
    cfg_path = write_config(tmp_path, {"data": {"synth": SMALL_SYNTH}, "train": SMALL_TRAIN})
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--threads", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died: ") and err.count("\n") == 1
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", ["kfold", "ablate"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exits_2(tmp_path, capsys, command, threads):
    cfg_path = write_config(tmp_path, {"data": {"synth": SMALL_SYNTH}, "train": SMALL_TRAIN})
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--threads", threads]
    assert main(argv) == 2
    assert f"threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# failures at the door: outputs, memory, overflow, report input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["synth", "train", "kfold", "ablate"])
def test_existing_file_as_out_exits_2(tmp_path, capsys, monkeypatch, command):
    """Before any training: a file in the way of the outputs is found in
    milliseconds, not after every fold has run."""
    import edapinn.cli as cli

    def no_training(*args, **kwargs):
        pytest.fail("trained before checking that --out can be written")

    for name in ("run_kfold", "ablation_table", "run_fold"):
        monkeypatch.setattr(cli, name, no_training)
    doc = {"data": {"synth": SMALL_SYNTH}, "train": {**SMALL_TRAIN, "epochs": 1}}
    cfg_path = write_config(tmp_path, {**doc, "ablate": {"variants": ["ridge"]}})
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write outputs: ") and err.count("\n") == 1
    assert out.read_text() == "keep me\n"


@pytest.mark.parametrize(
    "exc", [MemoryError(), MemoryError("Unable to allocate 74.5 GiB")], ids=["bare", "numpy"]
)
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, exc):
    import edapinn.cli as cli

    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_kfold", exhausted)
    assert main(["kfold", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
    assert str(exc) in err


@pytest.mark.parametrize(
    "doc", [{"model": {"hidden": [10**20]}}, {"data": {"synth": {"n": 10**20}}}], ids=["hidden", "synth_n"]
)
def test_size_past_numpys_largest_array_exits_2(tmp_path, capsys, doc):
    """numpy refuses such a size with a ValueError, not a MemoryError; the
    run does not fit in memory either way."""
    cfg_path = write_config(tmp_path, doc)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "than numpy can hold in one array" in err


@pytest.mark.parametrize("command", ["kfold", "ablate"])
def test_small_later_fold_exits_2_before_any_training(tmp_path, capsys, monkeypatch, command):
    """Synth n 37 at seed 20 gives validation splits of 8/8/8/6/7 rows: fold 4
    is refused before any fold trains, also when one process runs them all."""
    import edapinn.trainer as trainer_mod

    real, calls = trainer_mod.train_epoch, []

    def counting(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(trainer_mod, "train_epoch", counting)
    doc = {"data": {"synth": {"n": 37}}, "train": {"epochs": 3}, "ablate": {"variants": ["full", "ridge"]}}
    cfg_path = write_config(tmp_path, doc)
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--seed", "20", "--threads", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: fold 4 has 6 validation rows; its metrics need at least 8\n"
    assert calls == []


def alternating_csv(column: str) -> str:
    """20 rows whose ``column`` alternates between +1e308 and -1e308: finite
    cells whose spread overflows float64."""
    at = CSV_HEAD.strip().split(",").index(column)
    rows = [line.split(",") for line in csv_rows([0, 1] * 10).splitlines()]
    for i, row in enumerate(rows):
        row[at] = "1e308" if i % 2 else "-1e308"
    return CSV_HEAD + "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("column", ["t", "eda_mean"])
@pytest.mark.parametrize("command", ["train", "kfold"])
def test_overflowing_csv_spread_exits_2_naming_the_column(tmp_path, capsys, command, column):
    """Caught by fit_normalizer, without a RuntimeWarning (an error under this
    suite's warning filter) and before any training reaches a non-finite loss."""
    csv_path = tmp_path / "d.csv"
    csv_path.write_text(alternating_csv(column))
    cfg_path = write_config(tmp_path, {"data": {"input": str(csv_path)}, "train": SMALL_TRAIN})
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"column {column!r} overflows float64" in err


def one_cell_csv(column: str, value: str) -> str:
    """40 rows, ``column`` of row 0 set to ``value``."""
    at = CSV_HEAD.strip().split(",").index(column)
    rows = [line.split(",") for line in csv_rows([0, 1] * 20).splitlines()]
    rows[0][at] = value
    return CSV_HEAD + "".join(",".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("column", ["t", "eda_mean"])
@pytest.mark.parametrize("command", ["train", "kfold", "ablate"])
def test_validation_cell_overflowing_once_normalized_exits_2(tmp_path, capsys, command, column):
    """Row 0 lands in fold 1's validation split, so the training rows fit a
    normalizer under which its 1e308 leaves float64 (t) or squares past it
    in the metrics (eda_mean): one error line, not exit 3, a RuntimeWarning
    (an error under this suite's warning filter) or an inf in the tables."""
    csv_path = tmp_path / "d.csv"
    csv_path.write_text(one_cell_csv(column, "1e308"))
    train = {**SMALL_TRAIN, "epochs": 2}
    cfg_path = write_config(tmp_path, {"data": {"input": str(csv_path)}, "train": train})
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"column {column!r} overflows float64 once normalized" in err


def test_synth_overflowing_time_range_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"data": {"synth": {"n": 20, "t_min": -1e308, "t_max": 1e308}}})
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "synthetic t is not finite" in capsys.readouterr().err
    assert not out.exists()


REPORT_INPUTS = {
    "empty": lambda p: p.write_bytes(b""),
    "non_utf8": lambda p: p.write_bytes(b"fold,eda_rmse\n1,\xff\n"),
    "directory": lambda p: p.mkdir(),
    "long_row": lambda p: p.write_text("fold,eda_rmse\n1,0.5,0.7\n"),
}


@pytest.mark.parametrize("case", sorted(REPORT_INPUTS))
def test_report_on_unreadable_metrics_exits_2(tmp_path, capsys, case):
    REPORT_INPUTS[case](tmp_path / "metrics.csv")
    assert main(["report", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_report_reads_a_byte_order_mark(tmp_path, capsys):
    (tmp_path / "metrics.csv").write_text("fold,eda_rmse\n1,0.123456\n", encoding="utf-8-sig")
    assert main(["report", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("fold  eda_rmse")


def test_config_threshold_reaches_metrics_csv(tmp_path):
    """Near 0 every validation row is called positive (recall 1), near 1 none
    is (recall 0); the regression columns do not depend on it."""
    tables = {}
    for threshold in (1e-9, 1.0 - 1e-9):
        doc = {"data": {"synth": SMALL_SYNTH}, "train": {**SMALL_TRAIN, "epochs": 1}}
        cfg_path = write_config(tmp_path, {**doc, "model": {"threshold": threshold}})
        out = tmp_path / f"t{threshold}"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        tables[threshold] = dict(zip(lines[0].split(","), lines[1].split(",")))
    low, high = tables.values()
    assert (float(low["recall"]), float(high["recall"])) == (1.0, 0.0)
    for column in ("eda_rmse", "eda_mae", "eda_r"):
        assert low[column] == high[column]
