"""Dataset I/O, normalization, folding, the synthetic generator and its RK4 oracle."""

import io
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from edapinn.data import (
    CSV_HEADER,
    ClusterSpec,
    Dataset,
    SynthSpec,
    apply_normalizer,
    csv_text,
    ddt_sibling_path,
    fit_normalizer,
    load_csv,
    ode_derivative,
    ode_solution,
    rk4_integrate,
    stratified_kfold,
    synth_generate,
    write_csv,
    write_ddt_csv,
)
from edapinn.errors import ConfigError, ContractError, DataFormatError
from edapinn.objective import PhysicsParams, physics_residual
from edapinn.rng import Pcg32


def random_dataset(n, seed, stress_frac=0.5):
    rng = Pcg32(seed)
    return Dataset(
        rng.uniform(0, 1, n),
        rng.normal(3 * n).reshape(n, 3),
        rng.uniform(0.1, 2.0, n),
        (rng.random(n) < stress_frac).astype(np.int64),
    )


# ---------------------------------------------------------------------------
# CSV round trips and schema errors
# ---------------------------------------------------------------------------


def test_load_small_wellformed_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "t,panas_mean,sam_valence,sam_arousal,eda_mean,label\n"
        "0.1,2.0,6.0,3.0,0.5,0\n"
        "0.2,3.0,5.0,5.0,0.7,1\n"
        "0.3,2.5,5.5,4.0,0.6,0\n"
    )
    data = load_csv(p)
    assert len(data) == 3
    assert data.label.tolist() == [0, 1, 0]


def test_misspelled_header_names_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("t,panas_mean,sam_valence,sam_arousal,eda_mean,lable\n0,1,2,3,4,0\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(p)
    assert "label" in str(exc.value)


def test_row_addressed_errors(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "t,panas_mean,sam_valence,sam_arousal,eda_mean,label\n"
        "0.1,2.0,6.0,3.0,0.5,0\n"
        "0.2,oops,5.0,5.0,0.7,1\n"
    )
    with pytest.raises(DataFormatError) as exc:
        load_csv(p)
    assert "row 2" in str(exc.value)
    p.write_text("t,panas_mean,sam_valence,sam_arousal,eda_mean,label\n0.1,2,6,3,0.5,3\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(p)
    assert "row 1" in str(exc.value) and "label" in str(exc.value)


def test_non_utf8_file_raises_data_format_error(tmp_path):
    p = tmp_path / "d.csv"
    p.write_bytes(b"t,panas_mean,sam_valence,sam_arousal,eda_mean,label\n0.1,2,6,3,0.5,\xff\n")
    with pytest.raises(DataFormatError):
        load_csv(p)


def test_byte_order_mark_loads_the_same_dataset(tmp_path):
    text = (
        "t,panas_mean,sam_valence,sam_arousal,eda_mean,label\n"
        "0.1,2.0,6.0,3.0,0.5,0\n"
        "0.2,3.0,5.0,5.0,0.7,1\n"
    )
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text(text, encoding="utf-8")
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    a, b = load_csv(plain), load_csv(bom)
    for name in ("t", "e", "y", "label"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


_CELL = st.one_of(st.text(max_size=6), st.floats().map(repr), st.integers(-2, 2).map(str))
_ROWS = st.lists(st.lists(_CELL, max_size=8), max_size=6)
_CSV_TEXT = st.tuples(st.booleans(), _ROWS).map(
    lambda doc: "\n".join(
        ([",".join(CSV_HEADER)] if doc[0] else []) + [",".join(row) for row in doc[1]]
    ).encode("utf-8")
)


@settings(
    derandomize=True, database=None, deadline=None, max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(st.binary(max_size=120), _CSV_TEXT))
def test_any_bytes_load_as_a_dataset_or_raise_data_format_error(tmp_path, raw):
    """Arbitrary bytes, and rows of arbitrary cell text under an optional
    header, either load or raise DataFormatError: never a raw exception."""
    p = tmp_path / "fuzz.csv"
    p.write_bytes(raw)
    try:
        data = load_csv(p)
    except DataFormatError:
        return
    assert isinstance(data, Dataset)


def test_dataset_rejects_0d_time():
    with pytest.raises(ContractError, match="1-D"):
        Dataset(np.float64(1.0), np.zeros(3), np.float64(0.0), np.int64(0))


def test_write_load_roundtrip_identity(tmp_path):
    data = random_dataset(37, seed=5)
    p = tmp_path / "rt.csv"
    write_csv(data, p)
    back = load_csv(p)
    assert np.array_equal(back.t, data.t)
    assert np.array_equal(back.e, data.e)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.label, data.label)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_TYPED_CELL = st.one_of(
    st.text("abcxyz_", max_size=5),
    st.integers(-(10**30), 10**30),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _FINITE,
    _FINITE.map(np.float64),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.lists(_TYPED_CELL, min_size=1, max_size=6), max_size=8))
@example([[-0.0, np.float64(-0.0), 5e-324, np.float64(2.2250738585072009e-308), np.int64(-7)]])
def test_csv_text_writes_each_cell_by_its_type(rows):
    """Strings as they are, integers as plain digits, and every float cell as
    a decimal that float() reads back bit for bit, -0.0 and subnormals too."""
    text = csv_text(["h1", "h2"], rows)
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert len(lines) == 1 + len(rows) and lines[0] == "h1,h2"
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(row)
        for cell, x in zip(cells, row):
            if isinstance(x, str):
                assert cell == x
            elif isinstance(x, (int, np.integer)):
                assert re.fullmatch(r"-?[0-9]+", cell) and int(cell) == x
            else:
                assert struct.pack("<d", float(cell)) == struct.pack("<d", x)


def test_ddt_sibling_naming(tmp_path):
    assert ddt_sibling_path("runs/data.csv").name == "data.ddt.csv"


class _HalfWriter:
    """A text file whose write stores half the text, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, text):
        self._fh.write(text[: len(text) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def test_failed_synth_write_keeps_previous_files(tmp_path, monkeypatch):
    data, dydt = synth_generate(SynthSpec(n=40, seed=3))
    csv_path = tmp_path / "data.csv"
    ddt_path = ddt_sibling_path(csv_path)
    write_csv(data, csv_path)
    write_ddt_csv(dydt, ddt_path)
    before = csv_path.read_bytes(), ddt_path.read_bytes()

    real_open = io.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _HalfWriter(fh) if "w" in mode else fh

    other, other_dydt = synth_generate(SynthSpec(n=40, seed=4))
    monkeypatch.setattr(io, "open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        write_csv(other, csv_path)
    with pytest.raises(OSError, match="disk full"):
        write_ddt_csv(other_dydt, ddt_path)
    monkeypatch.undo()
    assert (csv_path.read_bytes(), ddt_path.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "data.ddt.csv"]


# ---------------------------------------------------------------------------
# normalizer
# ---------------------------------------------------------------------------


def test_zscore_population_convention():
    data = Dataset(
        np.array([1.0, 2.0, 3.0]),
        np.array([[1.0, 0.0, 5.0], [2.0, 1.0, 6.0], [3.0, 2.0, 7.0]]),
        np.array([0.0, 1.0, 2.0]),
        np.array([0, 1, 0]),
    )
    norm = fit_normalizer(data)
    out = apply_normalizer(norm, data)
    expected = np.array([-1.2247448713915890, 0.0, 1.2247448713915890])
    assert np.allclose(out.t, expected, atol=1e-12)
    assert np.allclose(out.inputs.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(out.inputs.std(axis=0), 1.0, atol=1e-10)
    assert out.y.min() == 0.0 and out.y.max() == 1.0


def test_apply_invert_target_identity():
    data = random_dataset(64, seed=9)
    norm = fit_normalizer(data)
    out = apply_normalizer(norm, data)
    restored = out.y * (norm.y_max - norm.y_min) + norm.y_min
    assert np.max(np.abs(restored - data.y)) <= 1e-12


def test_validation_targets_may_leave_unit_interval():
    train = random_dataset(50, seed=11)
    norm = fit_normalizer(train)
    wider = Dataset(train.t, train.e, train.y * 3.0 - 0.5, train.label)
    out = apply_normalizer(norm, wider)
    assert out.y.max() > 1.0 or out.y.min() < 0.0  # no clamping by design


def test_constant_column_rejected():
    data = random_dataset(20, seed=13)
    flat = Dataset(np.full(20, 0.7), data.e, data.y, data.label)
    with pytest.raises(ConfigError):
        fit_normalizer(flat)
    const_target = Dataset(data.t, data.e, np.full(20, 0.5), data.label)
    with pytest.raises(ConfigError):
        fit_normalizer(const_target)


@pytest.mark.parametrize("column", ["t", "panas_mean", "sam_arousal", "eda_mean"])
def test_overflowing_spread_rejected_by_column(column):
    """Finite cells alternating between +-1e308 overflow the column's mean,
    std or range; the normalizer names the column and leaks no RuntimeWarning
    (an error under this suite's warning filter)."""
    data = random_dataset(20, seed=13)
    cols = np.column_stack([data.inputs, data.y])  # the CSV columns but the label
    cols[:, CSV_HEADER.index(column)] = np.where(np.arange(20) % 2 == 0, 1e308, -1e308)
    wide = Dataset(cols[:, 0], cols[:, 1:4], cols[:, 4], data.label)
    with pytest.raises(ConfigError, match=f"column {column!r} overflows float64"):
        fit_normalizer(wide)


@pytest.mark.parametrize("column", ["t", "panas_mean", "sam_arousal", "eda_mean"])
def test_cell_overflowing_once_normalized_rejected_by_column(column):
    """One 1e308 cell outside the fitted rows: its z-score leaves float64, or
    its square does (the scaled target is 1e308 over a range near 2); the
    column is named and no RuntimeWarning leaks."""
    data = random_dataset(20, seed=13)
    norm = fit_normalizer(data)
    cols = np.column_stack([data.inputs, data.y])  # the CSV columns but the label
    cols[0, CSV_HEADER.index(column)] = 1e308
    far = Dataset(cols[:, 0], cols[:, 1:4], cols[:, 4], data.label)
    with pytest.raises(ConfigError, match=f"column {column!r} overflows float64 once normalized"):
        apply_normalizer(norm, far)


# ---------------------------------------------------------------------------
# stratified k-fold
# ---------------------------------------------------------------------------


def test_balanced_ten_samples_five_folds():
    data = Dataset(
        np.arange(10, dtype=float),
        np.zeros((10, 3)),
        np.zeros(10),
        np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0]),
    )
    for _, valid in stratified_kfold(data, 5, seed=0):
        labels = data.label[valid]
        assert labels.sum() == 1 and len(labels) == 2


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_folds_partition_indices(seed):
    data = random_dataset(101, seed=17, stress_frac=0.4)
    splits = stratified_kfold(data, 5, seed)
    all_valid = np.concatenate([v for _, v in splits])
    assert sorted(all_valid) == list(range(101))
    for train, valid in splits:
        assert not set(train) & set(valid)
        assert len(set(valid)) == len(valid)


def test_class_ratio_within_one_sample_on_1013_rows():
    data = random_dataset(1013, seed=23, stress_frac=0.37)
    for _, valid in stratified_kfold(data, 5, seed=3):
        for cls in (0, 1):
            exact = np.sum(data.label == cls) / 5
            assert abs(np.sum(data.label[valid] == cls) - exact) <= 1.0


def test_same_seed_same_folds():
    data = random_dataset(200, seed=29)
    a = stratified_kfold(data, 4, seed=77)
    b = stratified_kfold(data, 4, seed=77)
    for (ta, va), (tb, vb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(va, vb)


def test_small_class_raises():
    data = Dataset(np.arange(8, dtype=float), np.zeros((8, 3)), np.zeros(8),
                   np.array([1, 0, 0, 0, 0, 0, 0, 0]))
    with pytest.raises(ConfigError):
        stratified_kfold(data, 5, seed=0)


# ---------------------------------------------------------------------------
# synthetic generation and the ODE oracle
# ---------------------------------------------------------------------------


def test_initial_condition_and_steady_state():
    phys = PhysicsParams(1.0, np.array([1.0, 0.0, 0.0]), 1.0)
    e = np.array([1.0, 0.0, 0.0])  # beta . e = 1
    assert ode_solution(phys, e, y0=0.7, t=np.array([0.0]))[0] == pytest.approx(0.7, abs=1e-15)
    assert ode_solution(phys, e, y0=0.0, t=np.array([50.0]))[0] == pytest.approx(1.0, rel=1e-12)
    # frozen from the RK4 oracle at step 1e-3: y(1) = 1 - exp(-1)
    assert ode_solution(phys, e, y0=0.0, t=np.array([1.0]))[0] == pytest.approx(
        0.6321205588285577, abs=1e-9
    )


def test_rk4_constant_for_zero_dynamics():
    # alpha0, gamma must be positive for the generator; zero *dynamics* means beta = 0
    # and alpha0 -> the derivative term; here force f = 0 via beta = 0 and y0 = 0
    phys = PhysicsParams(1.0, np.zeros(3), 1.0)
    grid = np.linspace(0.0, 1.0, 101)
    traj = rk4_integrate(phys, np.ones(3), 0.0, grid)
    assert np.max(np.abs(traj)) == 0.0


def test_rk4_agrees_with_closed_form():
    phys = PhysicsParams(1.0, np.array([0.5, 0.3, 0.2]), 1.0)
    e = np.ones(3)
    grid = np.linspace(0.0, 1.0, 1001)
    exact = ode_solution(phys, e, 0.0, grid)
    approx = rk4_integrate(phys, e, 0.0, grid)
    assert np.max(np.abs(exact - approx)) <= 1e-8


def test_rk4_fourth_order_halving():
    # stiff enough that truncation dominates float64 roundoff
    phys = PhysicsParams(8.0, np.array([4.0, 3.0, 3.0]), 0.4)
    e = np.array([0.5, 0.3, 0.2])
    e1 = np.max(np.abs(
        rk4_integrate(phys, e, 0.1, np.linspace(0, 1, 1001))
        - ode_solution(phys, e, 0.1, np.linspace(0, 1, 1001))
    ))
    e2 = np.max(np.abs(
        rk4_integrate(phys, e, 0.1, np.linspace(0, 1, 2001))
        - ode_solution(phys, e, 0.1, np.linspace(0, 1, 2001))
    ))
    assert e1 / e2 >= 12.0


@pytest.mark.parametrize("seed", [9, 14, 18, 21, 31])
def test_ode_oracle_suite_passes_at_fast_decay_draws(seed):
    # these seeds draw a decay rate alpha0 / gamma large enough that RK4 at a
    # fixed step of 1e-3 misses the 1e-8 bound; the per-draw grid keeps it
    from edapinn.suites import suite_ode_oracle

    result = suite_ode_oracle(seed)
    assert result.passed, result.detail


def test_ode_oracle_suite_fails_a_nan_in_one_trajectory(monkeypatch):
    import edapinn.suites as suites_mod

    calls = []

    def third_has_nan(*args):
        out = rk4_integrate(*args)
        calls.append(None)
        if len(calls) == 3:
            out[500] = np.nan
        return out

    monkeypatch.setattr(suites_mod, "rk4_integrate", third_has_nan)
    result = suites_mod.suite_ode_oracle(1)
    assert not result.passed and np.isnan(result.figure)


def test_rk4_grid_contracts():
    phys = PhysicsParams(1.0, np.ones(3), 1.0)
    with pytest.raises(ContractError):
        rk4_integrate(phys, np.ones(3), 0.0, np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ContractError):
        rk4_integrate(phys, np.ones(3), 0.0, np.array([0.0, 0.5]))  # step > 1e-2
    with pytest.raises(ContractError, match="1-D"):
        rk4_integrate(phys, np.ones(3), 0.0, np.float64(0.5))


def test_synth_residual_free_and_labels():
    spec = SynthSpec(n=800, noise=0.0, seed=31)
    data, dydt = synth_generate(spec)
    r = physics_residual(dydt, data.y, data.e, spec.physics())
    assert np.max(np.abs(r)) <= 1e-10
    assert set(np.unique(data.label)) == {0, 1}
    # derivative consistency with the solution's finite difference
    h = 1e-7
    phys = spec.physics()
    for i in range(0, 800, 97):
        fd = (
            ode_solution(phys, data.e[i], spec.y0, np.array([data.t[i] + h]))[0]
            - ode_solution(phys, data.e[i], spec.y0, np.array([data.t[i] - h]))[0]
        ) / (2 * h)
        assert dydt[i] == pytest.approx(fd, rel=1e-6)


def test_synth_determinism_and_validation():
    a, da = synth_generate(SynthSpec(n=100, seed=5))
    b, db = synth_generate(SynthSpec(n=100, seed=5))
    assert np.array_equal(a.y, b.y) and np.array_equal(da, db)
    with pytest.raises(ConfigError):
        SynthSpec(alpha0=-1.0)
    with pytest.raises(ConfigError):
        SynthSpec(gamma=0.0)


def test_stress_fraction_sets_the_label_share():
    for fraction in (0.2, 0.5, 0.8):
        data, _ = synth_generate(SynthSpec(n=4000, seed=43, stress_fraction=fraction))
        assert abs(data.label.mean() - fraction) <= 0.03


@pytest.mark.parametrize(
    "spec, named",
    [
        (dict(t_min=-1e308, t_max=1e308), "t"),
        (dict(stress=ClusterSpec([1e308, 5.0, 5.0], [1e308, 1.0, 1.0])), "e"),
        (dict(alpha0=1e-308), "y"),
    ],
    ids=["t", "e", "y"],
)
def test_synth_rejects_non_finite_data(spec, named):
    with pytest.raises(ConfigError, match=f"synthetic {re.escape(named)} is not finite"):
        synth_generate(SynthSpec(n=50, seed=5, **spec))


def test_time_proxy_lies_in_its_range():
    spec = SynthSpec(n=2000, seed=47, t_min=2.0, t_max=3.5)
    data, _ = synth_generate(spec)
    assert np.all((data.t >= 2.0) & (data.t < 3.5))
    assert data.t.min() < 2.1 and data.t.max() > 3.4


def test_separation_knob_monotonic_threshold_accuracy():
    # a fixed-threshold classifier on the arousal feature must improve as the
    # clusters move apart
    accs = []
    for sep in (0.25, 1.0, 2.5):
        spec = SynthSpec(n=3000, seed=41, separation=sep)
        data, _ = synth_generate(spec)
        midpoint = 0.5 * (spec.nonstress.mean[2] + spec.stress.mean[2])
        pred = (data.e[:, 2] >= midpoint).astype(int)
        accs.append(np.mean(pred == data.label))
    assert accs[0] < accs[1] < accs[2]
def test_nonfinite_cell_rejected(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text(
        "t,panas_mean,sam_valence,sam_arousal,eda_mean,label\n"
        "0.1,2.0,6.0,3.0,0.5,0\n"
        "0.2,2.0,nan,3.0,0.5,1\n"
    )
    with pytest.raises(DataFormatError) as exc:
        load_csv(p)
    assert "row 2" in str(exc.value)
