"""Datasets for randomized-experiment uplift modeling.

Holds the immutable (features, treatment, outcome) triple, delimited-text
ingestion and export, stratified splitting, shuffled mini-batching with
per-batch treated fractions, and a synthetic generator with known
ground-truth individual treatment effects for desk-scale verification.
"""

from __future__ import annotations

import csv
import logging
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConfigError, MetricError, ParseError, SchemaError, is_binary,
                     is_int, is_real)

log = logging.getLogger(__name__)


@dataclass
class Dataset:
    """Feature matrix plus binary treatment flags and binary outcomes.

    Treatment and outcome are binary as `errors.is_binary` defines it,
    the package's one definition: bool values, integers 0 and 1, or
    floats equal to 0.0 or 1.0 (-0.0 included). They are checked before
    they are stored as int64, so 0.5, 1.7, NaN or a str or object array
    raises ConfigError naming the column rather than being truncated.
    An empty Dataset is valid: `subset` and `split` can make one.
    `true_ite` is only present for synthetic data, where the generating
    response probabilities are known; its values must lie in [-1, 1].
    Arrays are frozen after validation; a Dataset can be shared
    read-only across parallel runs.
    """

    features: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    true_ite: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
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
            self.true_ite = np.asarray(self.true_ite, dtype=np.float64)
            if self.true_ite.shape != (n,):
                raise ConfigError("true_ite length does not match feature rows")
            ite = self.true_ite
            # Negated so that NaN, which min and max return and which
            # compares False, fails too.
            if ite.size and not (ite.min() >= -1.0 and ite.max() <= 1.0):
                raise ConfigError("true_ite values must lie in [-1, 1]")
            self.true_ite.setflags(write=False)
        for arr in (self.features, self.treatment, self.outcome):
            arr.setflags(write=False)

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


@dataclass
class SynthConfig:
    """Controls for the synthetic randomized experiment.

    Defaults put the average uplift (tau_max / 4 = 0.015) well below the
    base response rate, the regime where instance-level uplift signals
    are noise-dominated.
    """

    n: int = 50_000
    d: int = 6
    base_rate: float = 0.10
    slope: float = 0.02
    tau_max: float = 0.06
    treated_fraction: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        for name, least in (("n", 1), ("d", 3), ("seed", 0)):
            value = getattr(self, name)
            if not is_int(value, least):
                raise ConfigError(
                    f"{name!r} must be an integer >= {least}, got {value!r}")
        for name in ("base_rate", "slope", "tau_max", "treated_fraction"):
            value = getattr(self, name)
            if not is_real(value):
                raise ConfigError(f"{name!r} must be a finite number, got {value!r}")
        if not 0.0 < self.treated_fraction < 1.0:
            raise ConfigError(
                f"treated_fraction must lie in (0, 1), got {self.treated_fraction}"
            )
        # Response probabilities are affine in x1 and piecewise-linear in
        # x2, so their range over [0,1]^d is spanned by the corners.
        pc_lo = self.base_rate + min(0.0, self.slope)
        pc_hi = self.base_rate + max(0.0, self.slope)
        ite_lo = min(0.0, self.tau_max)
        ite_hi = max(0.0, self.tau_max)
        lo = min(pc_lo, pc_lo + ite_lo)
        hi = max(pc_hi, pc_hi + ite_hi)
        if lo < 0.0 or hi > 1.0:
            raise ConfigError(
                f"response probabilities would span [{lo:.4g}, {hi:.4g}], "
                "outside [0, 1]"
            )


@dataclass
class TableSchema:
    """Column mapping for delimited-text ingestion.

    feature_cols=None means "all columns not otherwise named".
    """

    treatment_col: str = "treatment"
    outcome_col: str = "outcome"
    feature_cols: list[str] | None = None
    true_ite_col: str | None = None
    delimiter: str = ","


def load_table(path, schema: TableSchema) -> Dataset:
    """Read a delimited text file with a header row into a Dataset.

    `csv` reads the header; the body is parsed in one C pass by
    `np.loadtxt`, split on `schema.delimiter`, with `"` quoting fields and
    no comment lines. CRLF and CR line endings are accepted. A number
    cell holds what Python's `float()` reads, surrounding whitespace
    included, except that digit-group underscores (`1_000`) and
    non-ASCII digits are rejected. Treatment and outcome cells must read
    as 0 or 1 (`0.0`, `1e0` and `-0` do) by `errors.is_binary`, the
    package's one definition of a binary column. Columns the schema does
    not use are not parsed, but every row must have as many fields as the
    header.

    Rows are numbered from 1 after the header, one per csv record; blank
    lines are skipped but still counted. A header problem raises
    `SchemaError`. A bad row raises `ParseError` naming its number, the
    column and, for treatment and outcome, the value; a csv scan finds
    it, and runs only once the fast parse or its checks have failed. A
    non-finite feature or `true_ite` raises `ConfigError` from `Dataset`.
    The file is read as UTF-8 whatever the locale, without the UTF-8
    byte-order mark that some editors write before the header (it would
    otherwise join the first column's name); bytes that do not decode
    raise `ParseError` naming the file.
    """
    try:
        ds = _read_table(path, schema)
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.start + 1]
        raise ParseError(f"{path}: not UTF-8 text, cannot decode byte {bad!r}") from exc
    log.info("loaded %s: %d rows, %d features", path, ds.n, ds.d)
    return ds


def _read_table(path, schema: TableSchema) -> Dataset:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh, delimiter=schema.delimiter))
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row")
        header = [h.strip() for h in header]
        col_idx = {name: i for i, name in enumerate(header)}

        named = [schema.treatment_col, schema.outcome_col]
        if schema.true_ite_col is not None:
            named.append(schema.true_ite_col)
        if schema.feature_cols is not None:
            named.extend(schema.feature_cols)
        for name in named:
            if name not in col_idx:
                raise SchemaError(f"{path}: column {name!r} not found in header")

        if schema.feature_cols is None:
            reserved = {schema.treatment_col, schema.outcome_col, schema.true_ite_col}
            feature_cols = [h for h in header if h not in reserved]
        else:
            feature_cols = list(schema.feature_cols)
        if not feature_cols:
            raise SchemaError(f"{path}: no feature columns left after schema mapping")

        # (name, column, kind) of every cell a row must hold, in the order
        # the scan checks them.
        binary = (schema.treatment_col, schema.outcome_col)
        cells = [(c, col_idx[c], "feature") for c in feature_cols]
        cells += [(c, col_idx[c], "binary") for c in binary]
        if schema.true_ite_col is not None:
            cells.append((schema.true_ite_col, col_idx[schema.true_ite_col], "value"))
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
                    fh, dtype=dtype, delimiter=schema.delimiter, quotechar='"',
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
    """Read the body again with `csv`, one row at a time, and raise the
    ParseError of the first row the fast parse could not take; return if
    there is none."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        next(reader)
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != n_fields:
                raise ParseError(
                    f"{path}: row {row_no} has {len(row)} fields, header has "
                    f"{n_fields}"
                )
            for name, i, kind in cells:
                value, where = _number(row[i]), f"{path}: row {row_no}:"
                if value is None and kind == "feature":
                    raise ParseError(
                        f"{where} non-numeric feature value in column {name!r}"
                    )
                if value is None and kind == "binary":
                    raise ParseError(
                        f"{where} non-numeric value {row[i]!r} in column {name!r}"
                    )
                if value is None:
                    raise ParseError(f"{where} non-numeric value in column {name!r}")
                if kind == "binary" and not is_binary(value):
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
    re-import reproduces values bitwise."""
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
    fractions; per-cell allocations are repaired so every cell keeps its
    proportions within one or two rows of the exact quota. Any data is
    split this way, a (t, y) cell with fewer rows than splits (or none)
    included: a repair move only takes a row from a cell above its quota,
    so no allocation goes below zero.
    """
    if not is_int(seed, 0):
        raise ConfigError(f"'seed' must be an integer >= 0, got {seed!r}")
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
    batch is dropped so batch and bag arithmetic stay exact.
    """
    for name, value, least in (("batch_size", batch_size, 2), ("seed", seed, 0),
                               ("epoch", epoch, 0)):
        if not is_int(value, least):
            raise ConfigError(f"{name!r} must be an integer >= {least}, got {value!r}")
    if batch_size > ds.n:
        warnings.warn(
            f"batch_size {batch_size} exceeds dataset size {ds.n}; "
            "no batches produced",
            stacklevel=2,
        )
    rng = np.random.default_rng([int(seed), int(epoch)])
    perm = rng.permutation(ds.n)
    rows = perm[: ds.n - ds.n % batch_size].reshape(-1, batch_size)
    treated = ds.treatment[rows].sum(axis=1)
    return [MiniBatch(idx, int(n_t) / batch_size) for idx, n_t in zip(rows, treated)]


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Randomized experiment with known per-row treatment effects.

    Features are uniform on [0,1]^d. The control response probability is
    base_rate + slope * x1; the individual treatment effect is
    tau_max * max(0, 2 * (x2 - 0.5)), so half the population has zero
    uplift in expectation and the population mean effect is tau_max / 4.
    Treatment is assigned Bernoulli(treated_fraction) independently of x.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    x = rng.random((cfg.n, cfg.d))
    p_control = cfg.base_rate + cfg.slope * x[:, 0]
    ite = cfg.tau_max * np.maximum(0.0, 2.0 * (x[:, 1] - 0.5))
    t = (rng.random(cfg.n) < cfg.treated_fraction).astype(np.int64)
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
