"""Tabular dataset handling, normalization, folding and synthetic benchmarks.

The row schema is one 10-second window of wearable data:
time proxy t, emotion features e = (PANAS_mean, SAM_valence, SAM_arousal),
window-mean EDA, and a binary label (0 = non-stress, 1 = stress).

Synthetic benchmarks invert the first-order EDA dynamics: for per-sample
constant emotion input, the exact trajectory is

    y(t) = (beta.e / alpha0) * (1 - exp(-alpha0 t / gamma)) + y0 * exp(-alpha0 t / gamma)

and an independent classic RK4 integrator doubles as the oracle for that
closed form.

``csv_text`` is the one function that turns rows into CSV text, for the
dataset files here and for every table of ``reporting``; ``write_text_atomic``
writes any file through a temp file and a rename.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, ContractError, DataFormatError
from .objective import PhysicsParams
from .rng import Pcg32

CSV_HEADER = ["t", "panas_mean", "sam_valence", "sam_arousal", "eda_mean", "label"]
DDT_HEADER = ["row", "dydt"]


@dataclass
class Dataset:
    """Column-major view of the tabular schema; rows align across arrays.

    A batch of a stack of models over folds holds one batch per fold on
    leading axes in front of the rows (t of shape ``(F, 1, n)``); its length
    is the row count."""

    t: np.ndarray  # (n,)
    e: np.ndarray  # (n, 3)
    y: np.ndarray  # (n,)
    label: np.ndarray  # (n,) ints in {0, 1}

    def __post_init__(self):
        if self.t.ndim < 1:
            raise ContractError(f"dataset t must be 1-D or more, got shape {self.t.shape}")
        rows = self.t.shape
        if self.e.shape != rows + (3,) or self.y.shape != rows or self.label.shape != rows:
            raise ContractError("dataset arrays must align on the sample dimension")

    def __len__(self) -> int:
        return self.t.shape[-1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.t[idx], self.e[idx], self.y[idx], self.label[idx])

    @property
    def inputs(self) -> np.ndarray:
        """(n, 4) design block: time column followed by the emotion features."""
        return np.column_stack([self.t, self.e])


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write through a temp file and a rename, so ``path`` is never left truncated;
    the file gets the mode the umask gives a new file, not the temp file's 0o600."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # os reads the umask only by setting one: the strictest, for that moment
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_text(path: str | Path, error: type[Exception], what: str = "") -> str:
    """The UTF-8 text of ``path``, less a leading byte-order mark.

    A file that cannot be read or is not UTF-8 raises ``error`` with the
    message "cannot read <what> <path>: <reason>".
    """
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        name = f"{what} {path}" if what else path
        raise error(f"cannot read {name}: {exc}") from exc


def load_csv(path: str | Path) -> Dataset:
    reader = csv.reader(read_text(path, DataFormatError).splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty file: missing header row") from None
    if header != CSV_HEADER:
        missing = [c for c in CSV_HEADER if c not in header]
        extra = [c for c in header if c not in CSV_HEADER]
        detail = []
        if missing:
            detail.append(f"missing columns {missing}")
        if extra:
            detail.append(f"unexpected columns {extra}")
        if not detail:
            detail.append(f"column order must be {CSV_HEADER}")
        raise DataFormatError("bad header: " + "; ".join(detail))
    t, e, y, label = [], [], [], []
    for rownum, row in enumerate(reader, start=1):
        if len(row) != 6:
            raise DataFormatError(f"expected 6 cells, found {len(row)}", row=rownum)
        vals = []
        for cell in row[:5]:
            try:
                vals.append(float(cell))
            except ValueError:
                raise DataFormatError(f"non-numeric cell {cell!r}", row=rownum) from None
        if row[5] not in ("0", "1"):
            raise DataFormatError(f"label must be 0 or 1, got {row[5]!r}", row=rownum)
        if not all(map(math.isfinite, vals)):
            raise DataFormatError("non-finite value", row=rownum)
        t.append(vals[0])
        e.append(vals[1:4])
        y.append(vals[4])
        label.append(int(row[5]))
    return Dataset(
        np.array(t, dtype=np.float64),
        np.array(e, dtype=np.float64).reshape(len(t), 3),
        np.array(y, dtype=np.float64),
        np.array(label, dtype=np.int64),
    )


def csv_text(header: list[str], rows) -> str:
    """CSV text of a header line plus one line per row, each ending in a newline.

    This is the one place a table cell is written: a string as it is, a
    Python or numpy integer in decimal, and any other number as its shortest
    round-trip decimal, ``repr(float(x))``, which ``float()`` reads back bit
    for bit.
    """

    def cell(x) -> str:
        if isinstance(x, str):
            return x
        return str(x) if isinstance(x, (int, np.integer)) else repr(float(x))

    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def write_csv(dataset: Dataset, path: str | Path) -> None:
    columns = [dataset.t, *dataset.e.T, dataset.y, dataset.label]
    write_text_atomic(path, csv_text(CSV_HEADER, zip(*(c.tolist() for c in columns))))


def write_ddt_csv(dydt: np.ndarray, path: str | Path) -> None:
    write_text_atomic(path, csv_text(DDT_HEADER, enumerate(dydt, start=1)))


def load_ddt_csv(path: str | Path, rows: int) -> np.ndarray:
    """The dy/dt that ``write_ddt_csv`` wrote for ``rows`` data rows, bit for
    bit; any other file raises ``ConfigError``."""
    text = read_text(path, ConfigError, "dy/dt file")
    try:
        dydt = [float(line.partition(",")[2]) for line in text.splitlines()[1:]]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if len(dydt) != rows or not np.isfinite(dydt).all() or text != csv_text(DDT_HEADER, enumerate(dydt, start=1)):
        raise ConfigError(f"{path} is not what write_ddt_csv writes for {rows} rows: {len(dydt)} rows")
    return np.array(dydt)


def ddt_sibling_path(csv_path: str | Path) -> Path:
    p = Path(csv_path)
    return p.with_name(p.stem + ".ddt.csv")


# ---------------------------------------------------------------------------
# normalization: z-score inputs, min-max target, fitted on the training split
# ---------------------------------------------------------------------------


@dataclass
class Normalizer:
    """Input z-scores (population sd) and affine [0,1] target mapping.

    Fitted on the training split only; validation targets may land outside
    [0, 1], which is intentional (no clamping).
    """

    input_mean: np.ndarray  # (4,)
    input_std: np.ndarray  # (4,)
    y_min: float
    y_max: float


def fit_normalizer(train: Dataset) -> Normalizer:
    if len(train) == 0:
        raise ContractError("cannot fit a normalizer on an empty dataset")
    x = train.inputs
    # a spread near the float64 limit overflows to inf or nan, which the
    # checks below report by column, so numpy's warnings are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population convention
        constant = (x.max(axis=0) - x.min(axis=0)) == 0.0
    overflow = ~(np.isfinite(mean) & np.isfinite(std))
    if np.any(overflow):
        col = CSV_HEADER[int(np.argmax(overflow))]
        raise ConfigError(f"input column {col!r} overflows float64: cannot z-score")
    if np.any(constant) or np.any(std <= 0.0):
        col = CSV_HEADER[int(np.argmax(constant | (std <= 0.0)))]
        raise ConfigError(f"constant input column {col!r}: cannot z-score")
    y_min = float(train.y.min())
    y_max = float(train.y.max())
    if not math.isfinite(y_max - y_min):
        raise ConfigError("target column 'eda_mean' overflows float64: cannot min-max scale")
    if y_max <= y_min:
        raise ConfigError("constant target column: cannot min-max scale")
    return Normalizer(mean, std, y_min, y_max)


def apply_normalizer(norm: Normalizer, dataset: Dataset) -> Dataset:
    """``dataset`` scaled by ``norm``. The losses and metrics sum squares of
    these values over the rows, so a column whose sum of squares overflows
    float64 (a cell far outside the rows ``norm`` was fitted on) raises
    ``ConfigError`` naming that column."""
    with np.errstate(over="ignore", invalid="ignore"):
        x = (dataset.inputs - norm.input_mean) / norm.input_std
        y = (dataset.y - norm.y_min) / (norm.y_max - norm.y_min)
        overflow = ~np.isfinite(np.append((x * x).sum(axis=0), y @ y))
    if np.any(overflow):
        col = CSV_HEADER[int(np.argmax(overflow))]
        kind = "target" if col == "eda_mean" else "input"
        raise ConfigError(f"{kind} column {col!r} overflows float64 once normalized")
    return Dataset(x[:, 0], x[:, 1:], y, dataset.label.copy())


# ---------------------------------------------------------------------------
# stratified k-fold
# ---------------------------------------------------------------------------


def stratified_kfold(data: Dataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded stratified split into k folds.

    Each class is shuffled and dealt into k contiguous chunks whose sizes
    differ by at most one; the fold receiving each class's larger chunks is
    rotated by a seeded offset so no fold systematically collects the
    remainders. Returns (train_indices, valid_indices) per fold. This is the
    one place that requires labels 0 and 1 to hold at least k rows each.
    """
    if k < 2:
        raise ConfigError("k must be >= 2")
    counts = np.bincount(data.label, minlength=2)
    if counts.min() < k:
        raise ConfigError(f"k={k} exceeds the minority class count {counts.min()}")
    rng = Pcg32(seed).derive("stratified_kfold")
    fold_members: list[list[np.ndarray]] = [[] for _ in range(k)]
    for cls in range(counts.size):
        idx = np.flatnonzero(data.label == cls)
        idx = idx[rng.permutation(idx.size)]
        base, extra = divmod(idx.size, k)
        offset = int(rng.next_u32()) % k
        start = 0
        for j in range(k):
            fold = (j + offset) % k
            size = base + (1 if j < extra else 0)
            fold_members[fold].append(idx[start : start + size])
            start += size
    splits = []
    all_idx = np.arange(len(data))
    for fold in range(k):
        valid = np.sort(np.concatenate(fold_members[fold]))
        mask = np.ones(len(data), dtype=bool)
        mask[valid] = False
        splits.append((all_idx[mask], valid))
    return splits


# ---------------------------------------------------------------------------
# synthetic benchmark from the analytic ODE solution
# ---------------------------------------------------------------------------


@dataclass
class ClusterSpec:
    """Gaussian cluster over the three emotion features."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != (3,) or self.std.shape != (3,):
            raise ConfigError("cluster mean/std must be 3-vectors")
        if np.any(self.std <= 0):
            raise ConfigError("cluster stds must be positive", "std")


@dataclass
class SynthSpec:
    """Generator settings for the ODE-exact synthetic benchmark.

    ``separation`` scales the gap between the class cluster means around
    their midpoint; 1.0 keeps the defaults, 0 collapses the classes.
    """

    alpha0: float = 1.2
    beta: np.ndarray = field(default_factory=lambda: np.array([0.8, 0.25, 0.45]))
    gamma: float = 0.9
    n: int = 2000
    noise: float = 0.01
    y0: float = 0.2
    t_min: float = 0.0
    t_max: float = 1.0
    nonstress: ClusterSpec = field(
        default_factory=lambda: ClusterSpec(np.array([2.2, 6.5, 3.5]), np.array([0.55, 1.1, 1.1]))
    )
    stress: ClusterSpec = field(
        default_factory=lambda: ClusterSpec(np.array([3.45, 4.75, 5.5]), np.array([0.7, 1.3, 1.3]))
    )
    stress_fraction: float = 0.5
    separation: float = 1.0
    seed: int = 1

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=np.float64)
        for name in ("alpha0", "gamma"):
            if getattr(self, name) <= 0:
                raise ConfigError("alpha0 and gamma must be positive", name)
        if self.noise < 0:
            raise ConfigError("noise sigma must be >= 0", "noise")
        if not 0 < self.stress_fraction < 1:
            raise ConfigError("stress_fraction must lie in (0, 1)", "stress_fraction")
        if self.n < 1:
            raise ConfigError("sample count must be >= 1", "n")
        if self.t_max <= self.t_min:
            raise ConfigError(f"t range must be increasing, got t_min {self.t_min} and t_max {self.t_max}", "t_max")

    def physics(self) -> PhysicsParams:
        return PhysicsParams(self.alpha0, self.beta.copy(), self.gamma)


def ode_solution(phys: PhysicsParams, e: np.ndarray, y0: float, t: np.ndarray) -> np.ndarray:
    """Exact solution of gamma*dy/dt + alpha0*y = beta.e for constant e."""
    drive = e @ phys.beta if e.ndim == 2 else float(phys.beta @ e)
    decay = np.exp(-phys.alpha0 * t / phys.gamma)
    return (drive / phys.alpha0) * (1.0 - decay) + y0 * decay


def ode_derivative(phys: PhysicsParams, e: np.ndarray, y0: float, t: np.ndarray) -> np.ndarray:
    drive = e @ phys.beta if e.ndim == 2 else float(phys.beta @ e)
    decay = np.exp(-phys.alpha0 * t / phys.gamma)
    return (drive - phys.alpha0 * y0) / phys.gamma * decay


def synth_generate(spec: SynthSpec) -> tuple[Dataset, np.ndarray]:
    """Draw a dataset from the generative model; also return true dy/dt.

    With noise = 0 every sample satisfies the dynamics exactly at the true
    parameters; with noise > 0 the returned dy/dt is still the derivative of
    the clean trajectory. A spec whose t, e, y or dy/dt overflows float64
    raises ``ConfigError``.
    """
    rng = Pcg32(spec.seed).derive("synth")
    n = spec.n
    labels = (rng.random(n) < spec.stress_fraction).astype(np.int64)
    mid = 0.5 * (spec.nonstress.mean + spec.stress.mean)
    mean0 = mid + spec.separation * (spec.nonstress.mean - mid)
    mean1 = mid + spec.separation * (spec.stress.mean - mid)
    z = rng.normal(3 * n).reshape(n, 3)
    # overflow is reported by the check below, numpy's warnings on the way are redundant
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.where(
            labels[:, None] == 1,
            mean1 + z * spec.stress.std,
            mean0 + z * spec.nonstress.std,
        )
        t = rng.uniform(spec.t_min, spec.t_max, n)
        phys = spec.physics()
        y = ode_solution(phys, e, spec.y0, t)
        dydt = ode_derivative(phys, e, spec.y0, t)
        if spec.noise > 0:
            y = y + spec.noise * rng.normal(n)
    for name, values in (("t", t), ("e", e), ("y", y), ("dy/dt", dydt)):
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"synthetic {name} is not finite: the data.synth settings overflow float64")
    return Dataset(t, e, y, labels), dydt


def rk4_integrate(
    phys: PhysicsParams, e: np.ndarray, y0: float, t_grid: np.ndarray
) -> np.ndarray:
    """Classic fourth-order Runge-Kutta on dy/dt = (beta.e - alpha0*y)/gamma.

    Independent oracle for ode_solution; e is held constant. The grid must
    be strictly increasing with steps <= 1e-2 (the regime the accuracy
    guarantees are stated for).
    """
    t_grid = np.asarray(t_grid, dtype=np.float64)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ContractError("t_grid must be a nonempty 1-D array")
    steps = np.diff(t_grid)
    if np.any(steps <= 0):
        raise ContractError("t_grid must be strictly increasing")
    if steps.size and steps.max() > 1e-2 + 1e-12:
        raise ContractError("grid step must be <= 1e-2")
    drive = float(phys.beta @ np.asarray(e, dtype=np.float64))

    def f(y: float) -> float:
        return (drive - phys.alpha0 * y) / phys.gamma

    out = np.empty(t_grid.size)
    out[0] = y = float(y0)
    for i, h in enumerate(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = y
    return out
