"""Datasets for randomized-experiment uplift modeling.

Holds the immutable (features, treatment, outcome) triple, delimited-text
ingestion and export, stratified splitting, shuffled mini-batching with
per-batch treated fractions, and a synthetic generator with known
ground-truth individual treatment effects for desk-scale verification.
"""

from __future__ import annotations

import logging
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, MetricError, ParseError, SchemaError, check_int,
                     check_reals, is_binary, is_real)

log = logging.getLogger(__name__)


@dataclass
class Dataset:
    """Feature matrix plus binary treatment flags and binary outcomes.

    Treatment and outcome are binary as `errors.is_binary` defines it,
    the package's one definition: bool values, integers 0 and 1, or
    floats equal to 0.0 or 1.0 (-0.0 included). They are checked before
    they are stored as int64, so 0.5, 1.7, NaN or a str or object array
    raises ConfigError naming the column rather than being truncated.
    Features and `true_ite` must hold real numbers, as
    `errors.check_reals` checks before the float64 cast: complex values,
    text or ragged nesting raise ConfigError naming the column.
    An empty Dataset is valid: `subset` and `split` can make one.
    `true_ite` is only present for synthetic data, where the generating
    response probabilities are known; its values must lie in [-1, 1].
    The Dataset holds read-only views of its arrays, made after
    validation, so a Dataset can be shared read-only across parallel
    runs. An input already stored as the Dataset stores it (contiguous
    float64 features and `true_ite`, int64 treatment and outcome) is not
    copied: the view shares memory with the caller's array, which stays
    writable, and a later write there shows through the Dataset.
    """

    features: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    true_ite: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(check_reals("features", self.features))
        for name in ("treatment", "outcome"):
            vec = np.asarray(getattr(self, name))
            # Checked before the cast, which would truncate 0.5 to 0.
            if not is_binary(vec):
                raise ConfigError(f"{name} values must be 0 or 1, held as bool, "
                                  f"integer or float; got a {vec.dtype} array")
            setattr(self, name, vec.astype(np.int64, copy=False))
        if self.features.ndim != 2:
            raise ConfigError(f"features must be 2-D, got shape {self.features.shape}")
        n = self.features.shape[0]
        if self.treatment.shape != (n,) or self.outcome.shape != (n,):
            raise ConfigError(
                f"length mismatch: {n} feature rows, {self.treatment.shape} "
                f"treatment, {self.outcome.shape} outcome"
            )
        if not np.all(np.isfinite(self.features)):
            raise ConfigError("features contain non-finite values")
        if self.true_ite is not None:
            self.true_ite = check_reals("true_ite", self.true_ite)
            if self.true_ite.shape != (n,):
                raise ConfigError("true_ite length does not match feature rows")
            ite = self.true_ite
            # Negated so that NaN, which min and max return and which
            # compares False, fails too.
            if ite.size and not (ite.min() >= -1.0 and ite.max() <= 1.0):
                raise ConfigError("true_ite values must lie in [-1, 1]")
        for name in ("features", "treatment", "outcome", "true_ite"):
            arr = getattr(self, name)
            if arr is not None:
                arr = arr.view()  # frozen, not the caller's array
                arr.setflags(write=False)
                setattr(self, name, arr)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(
            self.features[indices],
            self.treatment[indices],
            self.outcome[indices],
            None if self.true_ite is None else self.true_ite[indices],
        )


@dataclass
class MiniBatch:
    """Row indices into a Dataset plus the batch's treated fraction."""

    indices: np.ndarray
    u_t: float


# The synthetic experiment's fixed terms: the control response at x1 = 0,
# its rise to x1 = 1, and each row's chance of treatment.
BASE_RATE = 0.10
SLOPE = 0.02
TREATED_FRACTION = 0.5


def _law(x1, x2, tau_max):
    """The synthetic experiment's response law at covariates x1 and x2:
    the control response probability BASE_RATE + SLOPE * x1 and the
    individual treatment effect tau_max * max(0, 2 (x2 - 0.5))."""
    return BASE_RATE + SLOPE * x1, tau_max * np.maximum(0.0, 2.0 * (x2 - 0.5))


@dataclass(frozen=True)
class SynthConfig:
    """Controls for the synthetic randomized experiment of
    `generate_synthetic`: n rows of d >= 3 features, the largest
    individual treatment effect tau_max, and the seed.

    A config is checked once, when it is made: construction raises
    ConfigError naming the first bad field. It is frozen: make a variant
    with `dataclasses.replace`, which checks it again.

    The defaults put the average uplift (tau_max / 4 = 0.015) well below
    the base response rate, the regime where instance-level uplift
    signals are noise-dominated. Every response probability must lie in
    [0, 1], so tau_max is legal from -BASE_RATE = -0.10 to
    1 - BASE_RATE - SLOPE = 0.88.
    """

    n: int = 50_000
    d: int = 6
    tau_max: float = 0.06
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n", 1), ("d", 3), ("seed", 0)):
            check_int(name, getattr(self, name), least)
        if not is_real(self.tau_max):
            raise ConfigError(f"'tau_max' must be a finite number, got {self.tau_max!r}")
        # The law is affine in x1 and piecewise-linear in x2, so the response
        # probabilities over [0,1]^d span those at the corners of (x1, x2).
        # At x2 = 0 the effect is 0, so those corners give the control ones.
        p_control, ite = _law(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]),
                              self.tau_max)
        p = p_control + ite
        lo, hi = float(p.min()), float(p.max())
        if lo < 0.0 or hi > 1.0:
            raise ConfigError(
                f"tau_max {self.tau_max!r} would put response probabilities in "
                f"[{lo!r}, {hi!r}], outside [0, 1]"
            )


@dataclass
class TableSchema:
    """Column mapping for delimited-text ingestion.

    feature_cols=None means "all columns not otherwise named". Each
    column takes one role, and the delimiter is one character other than
    a line break.
    """

    treatment_col: str = "treatment"
    outcome_col: str = "outcome"
    feature_cols: list[str] | None = None
    true_ite_col: str | None = None
    delimiter: str = ","


def load_table(path, schema: TableSchema) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    One line is one row, and a cell is the text between two delimiters:
    there is no quoting, so `"` is a character like any other and a cell
    cannot hold the delimiter or a line break. The header is split on
    `schema.delimiter` and the body parsed in one C pass by `np.loadtxt`,
    with no comment lines. LF, CRLF and CR line endings are accepted. A
    number cell holds what Python's `float()` reads, surrounding
    whitespace included, except that digit-group underscores (`1_000`)
    and non-ASCII digits are rejected. Treatment and outcome cells must
    read as 0 or 1 (`0.0`, `1e0` and `-0` do) by `errors.is_binary`, the
    package's one definition of a binary column. Columns the schema does
    not use are not parsed, but every row must have as many cells as the
    header.

    Rows are numbered from 1 after the header, one per line; empty lines
    are skipped but still counted. A header problem raises
    `SchemaError`: among them a column the schema uses that the header
    holds more than once, and a column the schema gives two roles (both
    the treatment and the outcome, say, or a feature and the treatment);
    columns it does not use may repeat. A delimiter that is not one
    character, or is a line break, raises `ConfigError` before the file
    is opened. A bad row raises `ParseError` naming its number, the
    column and the cell as written; a scan that splits each line on the
    delimiter finds it, and runs only once the fast parse or its checks
    have failed. A non-finite feature or `true_ite` raises `ConfigError`
    from `Dataset`. The file is read as UTF-8 whatever the locale,
    without the UTF-8 byte-order mark that some editors write before the
    header (it would otherwise join the first column's name); bytes that
    do not decode raise `ParseError` naming the file.
    """
    _check_delimiter(schema.delimiter)
    try:
        ds = _read_table(path, schema)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.start + 1]
        raise ParseError(f"{path}: not UTF-8 text, cannot decode byte {bad!r}") from exc
    log.info("loaded %s: %d rows, %d features", path, ds.n, ds.d)
    return ds


def _read_table(path, schema: TableSchema) -> Dataset:
    with open(path, "r", encoding="utf-8-sig") as fh:
        line = fh.readline()
        if not line:
            raise SchemaError(f"{path}: file is empty, expected a header row")
        header = [h.strip() for h in line.rstrip("\n").split(schema.delimiter)]
        col_idx = {name: i for i, name in enumerate(header)}

        roles = [schema.treatment_col, schema.outcome_col]
        if schema.true_ite_col is not None:
            roles.append(schema.true_ite_col)
        if schema.feature_cols is None:
            feature_cols = [h for h in header if h not in roles]
        else:
            feature_cols = list(schema.feature_cols)
        # Every column the schema uses, once per role it takes.
        named, in_header = Counter(roles + feature_cols), Counter(header)
        for name in roles + feature_cols:
            if name not in col_idx:
                raise SchemaError(f"{path}: column {name!r} not found in header")
            if in_header[name] > 1:
                raise SchemaError(f"{path}: column {name!r} appears "
                                  f"{in_header[name]} times in the header")
            if named[name] > 1:
                raise SchemaError(f"{path}: column {name!r} takes more than one "
                                  "role in the schema")
        if not feature_cols:
            raise SchemaError(f"{path}: no feature columns left after schema mapping")

        # (name, column, whether binary) of every cell a row must hold, in
        # the order the scan checks them.
        binary = (schema.treatment_col, schema.outcome_col)
        cells = [(c, col_idx[c], False) for c in feature_cols]
        cells += [(c, col_idx[c], True) for c in binary]
        if schema.true_ite_col is not None:
            cells.append((schema.true_ite_col, col_idx[schema.true_ite_col], False))
        used = sorted({i for _, i, _ in cells})
        # An unused column is a zero-width string: loadtxt skips its text
        # but still checks that every row has the header's field count.
        dtype = np.dtype(
            [(f"c{i}", np.float64 if i in used else "S0") for i in range(len(header))]
        )
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(
                    fh, dtype=dtype, delimiter=schema.delimiter, quotechar=None,
                    comments=None, ndmin=1,
                )
        except ValueError as exc:
            rows, failure = None, str(exc)

    if rows is not None:
        # Each record holds the used columns back to back, in header order.
        table = rows.view(np.float64).reshape(len(rows), len(used))
        pos = {name: used.index(i) for name, i, _ in cells}
        flags = np.take(table, [pos[c] for c in binary], axis=1)
        if not is_binary(flags):
            rows, failure = None, "a treatment or outcome value is not 0 or 1"
    if rows is None:
        _raise_first_bad_row(path, schema.delimiter, len(header), cells)
        raise ParseError(f"{path}: {failure}")
    if not len(rows):
        raise ParseError(f"{path}: no data rows")
    ite = schema.true_ite_col
    return Dataset(
        np.take(table, [pos[c] for c in feature_cols], axis=1),
        flags[:, 0].astype(np.int64),
        flags[:, 1].astype(np.int64),
        None if ite is None else table[:, pos[ite]].copy(),
    )


def _raise_first_bad_row(path, delimiter: str, n_fields: int, cells) -> None:
    """Read the body again one line at a time, split each on `delimiter`,
    and raise the ParseError of the first row the fast parse could not
    take; return if there is none."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        fh.readline()
        for row_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            row = line.split(delimiter)
            if len(row) != n_fields:
                raise ParseError(
                    f"{path}: row {row_no} has {len(row)} fields, header has {n_fields}"
                )
            for name, i, flag in cells:
                value, where = _number(row[i]), f"{path}: row {row_no}:"
                if value is None:
                    raise ParseError(
                        f"{where} non-numeric value {row[i]!r} in column {name!r}"
                    )
                if flag and not is_binary(value):
                    raise ParseError(
                        f"{where} column {name!r} must be 0 or 1, got {row[i]!r}"
                    )


def _number(cell: str) -> float | None:
    """The value `np.loadtxt` reads from `cell`, or None if it reads none:
    what `float()` takes, less underscores and non-ASCII digits."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        return None
    try:
        return float(text)
    except ValueError:
        return None


def save_table(ds: Dataset, path, delimiter: str = ",") -> None:
    """Write a Dataset as delimited text; true_ite rides along as an
    extra column when present. Floats use 17 significant digits so a
    re-import reproduces values bitwise. A delimiter `load_table` could
    not read back raises ConfigError before the file is opened."""
    _check_delimiter(delimiter)
    header = [f"x{i + 1}" for i in range(ds.d)] + ["treatment", "outcome"]
    columns = [ds.features, ds.treatment, ds.outcome]
    fmt = ["%.17g"] * ds.d + ["%d", "%d"]
    if ds.true_ite is not None:
        header.append("true_ite")
        columns.append(ds.true_ite)
        fmt.append("%.17g")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt=fmt, delimiter=delimiter,
                   header=delimiter.join(header), comments="")


def _check_delimiter(delimiter) -> None:
    """ConfigError naming `delimiter` unless a table can be split on it:
    one character other than a line break."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1) or delimiter in "\r\n":
        raise ConfigError("'delimiter' must be one character other than a line break, "
                          f"got {delimiter!r}")


def _largest_remainder(n: int, fractions) -> list[int]:
    quotas = [n * f for f in fractions]
    base = [int(np.floor(q)) for q in quotas]
    short = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda s: (-(quotas[s] - base[s]), s))
    for s in order[:short]:
        base[s] += 1
    return base


def split(ds: Dataset, fractions, seed) -> tuple[Dataset, Dataset, Dataset]:
    """Partition into train/valid/test, stratified jointly on
    (treatment, outcome).

    Global split sizes follow largest-remainder rounding of the
    fractions. Each (t, y) cell is rounded the same way, then repaired
    one row at a time until the split sizes match, so every cell's
    allocation to every split lies strictly between quota - 1 and
    quota + 2, where the quota is the cell's rows times the split's
    fraction. Any data is split this way, a (t, y) cell with fewer rows
    than splits (or none) included: a repair move only takes a row from
    a cell above its quota, so no allocation goes below zero.
    """
    check_int("seed", seed, 0)
    if isinstance(fractions, (str, bytes)) or not np.iterable(fractions):
        raise ConfigError(f"fractions must be a sequence of numbers, got {fractions!r}")
    fractions = tuple(fractions)
    for f in fractions:
        if not is_real(f):
            raise ConfigError(f"fractions must be finite numbers, got {f!r}")
    fractions = tuple(map(float, fractions))
    if len(fractions) != 3 or any(f <= 0 for f in fractions):
        raise ConfigError(f"need three positive fractions, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"fractions must sum to 1, got {sum(fractions)!r}")
    rng = np.random.default_rng(seed)
    targets = _largest_remainder(ds.n, fractions)

    cells = [
        np.flatnonzero((ds.treatment == t) & (ds.outcome == y))
        for t in (0, 1)
        for y in (0, 1)
    ]
    alloc = [_largest_remainder(len(c), fractions) for c in cells]
    # Repair global drift one row at a time; each move keeps the donor
    # cell within rounding of its quota.
    totals = [sum(a[s] for a in alloc) for s in range(3)]
    while totals != targets:
        s_over = max(range(3), key=lambda s: totals[s] - targets[s])
        s_under = min(range(3), key=lambda s: totals[s] - targets[s])
        c = max(
            range(len(cells)),
            key=lambda c: (alloc[c][s_over] - len(cells[c]) * fractions[s_over]),
        )
        alloc[c][s_over] -= 1
        alloc[c][s_under] += 1
        totals[s_over] -= 1
        totals[s_under] += 1

    # Each cell shuffled, in cell order, and cut into its three shares.
    shares = [np.split(rng.permutation(cell), np.cumsum(a)[:-1])
              for cell, a in zip(cells, alloc)]
    return tuple(ds.subset(np.sort(np.concatenate(p))) for p in zip(*shares))


def minibatches(ds: Dataset, batch_size: int, seed, epoch: int) -> list[MiniBatch]:
    """Shuffled equal-sized mini-batches for one pass over the data.

    A fresh uniform shuffle is drawn per (seed, epoch); the final short
    batch is dropped so batch and bag arithmetic stay exact. A
    `batch_size` below 2, or above the dataset's row count, raises
    ConfigError naming it, so the list holds at least one batch.
    """
    for name, value, least in (("batch_size", batch_size, 2), ("seed", seed, 0),
                               ("epoch", epoch, 0)):
        check_int(name, value, least)
    if batch_size > ds.n:
        raise ConfigError(f"batch_size {batch_size} exceeds dataset size {ds.n}")
    rng = np.random.default_rng([int(seed), int(epoch)])
    perm = rng.permutation(ds.n)
    rows = perm[: ds.n - ds.n % batch_size].reshape(-1, batch_size)
    treated = ds.treatment[rows].sum(axis=1)
    return [MiniBatch(idx, int(n_t) / batch_size) for idx, n_t in zip(rows, treated)]


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Randomized experiment with known per-row treatment effects.

    Features are uniform on [0,1]^d. The control response probability is
    BASE_RATE + SLOPE * x1 = 0.10 + 0.02 * x1; the individual treatment
    effect is tau_max * max(0, 2 * (x2 - 0.5)), so half the population
    has zero uplift in expectation and the population mean effect is
    tau_max / 4. Treatment is assigned Bernoulli(TREATED_FRACTION = 0.5)
    independently of x, and the outcome is Bernoulli(control response
    plus the effect if treated). One rng, seeded with cfg.seed, draws the
    features, then the treatments, then the outcomes. `cfg` was checked
    when it was made (`SynthConfig`).
    """
    rng = np.random.default_rng(cfg.seed)
    x = rng.random((cfg.n, cfg.d))
    p_control, ite = _law(x[:, 0], x[:, 1], cfg.tau_max)
    t = (rng.random(cfg.n) < TREATED_FRACTION).astype(np.int64)
    p = p_control + t * ite
    y = (rng.random(cfg.n) < p).astype(np.int64)
    return Dataset(features=x, treatment=t, outcome=y, true_ite=ite)


def empirical_ate(ds: Dataset) -> float:
    """Difference of group response rates, mean(Y|T=1) - mean(Y|T=0)."""
    treated = ds.treatment == 1
    n_t = int(treated.sum())
    n_c = ds.n - n_t
    if n_t == 0 or n_c == 0:
        raise MetricError(
            f"ATE undefined: {n_t} treated and {n_c} control rows"
        )
    return float(ds.outcome[treated].mean() - ds.outcome[~treated].mean())


def fit_scaler(features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and deviation for standardization, fit on the
    training split only. Constant columns get deviation 1 so they map
    to zero rather than dividing by zero."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std
