"""Dataset construction, ingestion, splitting, batching, synthesis."""

import re
import warnings

import numpy as np
import pytest

from upliftmil import data
from upliftmil.data import (
    Dataset,
    SynthConfig,
    TableSchema,
    empirical_ate,
    generate_synthetic,
    load_table,
    minibatches,
    save_table,
    split,
)
from upliftmil.errors import ConfigError, MetricError, ParseError, SchemaError

from oracles import ate_standard_error


def _write(tmp_path, text, name="data.csv"):
    """Write `text` as UTF-8 with its line endings kept as given."""
    p = tmp_path / name
    p.write_bytes(text.encode("utf-8"))
    return p


def _rate_dataset(n_t, k_t, n_c, k_c):
    """Dataset with exact group response rates k_t/n_t and k_c/n_c."""
    y = np.concatenate(
        [np.ones(k_t), np.zeros(n_t - k_t), np.ones(k_c), np.zeros(n_c - k_c)]
    )
    t = np.concatenate([np.ones(n_t), np.zeros(n_c)])
    return Dataset(np.zeros((n_t + n_c, 1)), t, y)


class TestDataset:
    def test_binary_validation(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]), np.array([0, 1]))

    @pytest.mark.parametrize("column", ["treatment", "outcome"])
    @pytest.mark.parametrize("bad", [
        [0.5, 1.7, 0.0], [True, 0.9, 1], [np.nan, 0.0, 1.0], ["0", "1", "0"],
        np.array([0, 1, None], dtype=object),
    ], ids=["fractions", "mixed", "nan", "str", "object"])
    def test_nonbinary_column_names_it(self, column, bad):
        # Checked before the int64 cast, which would truncate 0.5, 1.7 and
        # 0.9, read "1" as 1, and fail on NaN with a bare ValueError.
        cols = {"treatment": [0, 1, 0], "outcome": [1, 0, 1], column: bad}
        with pytest.raises(ConfigError, match=f"^{column} values must be 0 or 1"):
            Dataset(np.zeros((3, 1)), cols["treatment"], cols["outcome"])

    @pytest.mark.parametrize("t, y", [
        (np.array([False, True]), np.array([True, False])),
        (np.array([0.0, 1.0]), np.array([-0.0, 1.0])),
        (np.array([0, 1], dtype=np.uint8), np.array([1, 0], dtype=np.int8)),
    ], ids=["bool", "float", "small-int"])
    def test_binary_dtypes_accepted_as_int64(self, t, y):
        ds = Dataset(np.zeros((2, 1)), t, y)
        assert ds.treatment.dtype == ds.outcome.dtype == np.int64
        np.testing.assert_array_equal(ds.treatment, t.astype(np.int64))
        np.testing.assert_array_equal(ds.outcome, y.astype(np.int64))

    def test_empty_dataset_accepted(self):
        ds = Dataset(np.zeros((0, 2)), [], [], [])
        assert ds.n == 0 and ds.treatment.dtype == np.int64
        assert ds.subset(np.array([], dtype=np.intp)).n == 0

    def test_length_validation(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((3, 1)), np.array([0, 1]), np.array([0, 1, 0]))

    def test_true_ite_range_validation(self):
        with pytest.raises(ConfigError):
            Dataset(
                np.zeros((2, 1)),
                np.array([0, 1]),
                np.array([0, 1]),
                np.array([0.0, 1.5]),
            )

    def test_nan_true_ite_rejected(self):
        # NaN fails every comparison, so a range test alone lets it through.
        with pytest.raises(ConfigError, match="true_ite"):
            Dataset(
                np.zeros((2, 1)),
                np.array([0, 1]),
                np.array([0, 1]),
                np.array([np.nan, 0.0]),
            )

    def test_arrays_frozen(self):
        ds = Dataset(np.zeros((2, 2)), np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0


class TestLoadTable:
    def test_small_file_shape(self, tmp_path):
        plain = "a,b,treatment,outcome\n1,2,1,0\n3,4,0,1\n5,6,1,1\n7,8,0,0\n"
        quoted = (
            '"a","b",treatment,outcome\n"1","2",1,"0"\n3,"4",0,1\n5,6,1,1\n7,8,0,0\n'
        )
        # Plain, CRLF and CR line endings, quoted fields, a blank line.
        for text in (plain, plain.replace("\n", "\r\n"), plain.replace("\n", "\r"),
                     quoted, plain.replace("1,0\n", "1,0\n\n")):
            p = _write(tmp_path, text)
            ds = load_table(p, TableSchema())
            assert (ds.n, ds.d) == (4, 2)
            np.testing.assert_array_equal(ds.features, [[1, 2], [3, 4], [5, 6], [7, 8]])
            np.testing.assert_array_equal(ds.treatment, [1, 0, 1, 0])
            np.testing.assert_array_equal(ds.outcome, [0, 1, 1, 0])

    def test_nonbinary_treatment_names_row(self, tmp_path):
        p = _write(tmp_path, "a,treatment,outcome\n1,1,0\n2,0,1\n3,2,0\n4,1,1\n")
        with pytest.raises(ParseError, match="row 3"):
            load_table(p, TableSchema())

    def test_blank_line_skipped_but_counted(self, tmp_path):
        p = _write(tmp_path, "a,treatment,outcome\n1,1,0\n\n2,0,1\n3,2,0\n")
        with pytest.raises(ParseError, match="row 4: column 'treatment'"):
            load_table(p, TableSchema())

    def test_whitespace_only_line_rejected(self, tmp_path):
        p = _write(tmp_path, "a,treatment,outcome\n1,1,0\n  \n2,0,1\n")
        with pytest.raises(ParseError, match="row 2 has 1 fields, header has 3"):
            load_table(p, TableSchema())

    @pytest.mark.parametrize("features", [None, ["a"]])
    def test_short_and_long_rows_named(self, tmp_path, features):
        # With explicit features column b is unused and not parsed, yet
        # every row must still have the header's field count.
        schema = TableSchema(feature_cols=features)
        for body, match in (("1,2,1,0\n3,4,0\n", "row 2 has 3 fields"),
                            ("1,2,1,0\n3,4,0,1,5\n", "row 2 has 5 fields")):
            p = _write(tmp_path, "a,b,treatment,outcome\n" + body)
            with pytest.raises(ParseError, match=match + ", header has 4"):
                load_table(p, schema)

    def test_binary_cells_read_as_numbers(self, tmp_path):
        p = _write(tmp_path, "a,treatment,outcome\n1,1e0,-0\n2,0.0,1.000\n")
        ds = load_table(p, TableSchema())
        np.testing.assert_array_equal(ds.treatment, [1, 0])
        np.testing.assert_array_equal(ds.outcome, [0, 1])

    def test_nonbinary_outcome_names_column_and_value(self, tmp_path):
        p = _write(tmp_path, "a,treatment,outcome\n1,1,0\n2,0,0.5\n")
        match = "row 2: column 'outcome' must be 0 or 1, got '0.5'"
        with pytest.raises(ParseError, match=match):
            load_table(p, TableSchema())

    def test_edge_numbers_load_as_float_reads_them(self, tmp_path):
        cells = ["5e-324", "-0.0", "1.7976931348623157e308", "0.10000000000000001",
                 "2.2250738585072014e-308", "-1.2345678901234567e-89", " 7 ", "1E5"]
        rows = [f"{c},1,0" for c in cells]
        p = _write(tmp_path, "a,treatment,outcome\n" + "\n".join(rows) + "\n")
        ds = load_table(p, TableSchema())
        want = np.array([float(c) for c in cells])
        assert ds.features[:, 0].tobytes() == want.tobytes()

    def test_underscores_and_non_ascii_digits_rejected(self, tmp_path):
        # float() reads these, the C parser does not: the loader takes
        # the C parser's syntax.
        match = "row 2: non-numeric feature value in column 'a'"
        for cell in ("1_000", "\u0661", "\uff11"):
            p = _write(tmp_path, f"a,treatment,outcome\n1,1,0\n{cell},0,1\n")
            with pytest.raises(ParseError, match=match):
                load_table(p, TableSchema())

    def test_twelve_feature_columns_accepted(self, tmp_path):
        cols = [f"f{i}" for i in range(12)]
        header = ",".join(cols + ["treatment", "outcome"])
        row = ",".join(["0.5"] * 12 + ["1", "0"])
        p = _write(tmp_path, header + "\n" + row + "\n" + row + "\n")
        ds = load_table(p, TableSchema())
        assert ds.d == 12

    def test_missing_column_names_it(self, tmp_path):
        p = _write(tmp_path, "a,treatment\n1,0\n")
        with pytest.raises(SchemaError, match="outcome"):
            load_table(p, TableSchema())

    def test_non_numeric_feature_rejected(self, tmp_path):
        p = _write(tmp_path, "a,treatment,outcome\nfoo,1,0\n")
        with pytest.raises(ParseError, match="'a'"):
            load_table(p, TableSchema())

    def test_explicit_feature_subset_and_delimiter(self, tmp_path):
        # The unused column b may hold anything, numbers or not.
        for text in ("a;b;t;y\n1;9;1;0\n2;8;0;1\n", "a;b;t;y\n1;x;1;0\n2;;0;1\n"):
            p = _write(tmp_path, text)
            schema = TableSchema(
                treatment_col="t", outcome_col="y", feature_cols=["a"], delimiter=";"
            )
            ds = load_table(p, schema)
            assert ds.d == 1
            np.testing.assert_array_equal(ds.features.ravel(), [1.0, 2.0])

    def test_nan_true_ite_rejected(self, tmp_path):
        p = _write(tmp_path, "a,treatment,outcome,ite\n1,1,0,0.1\n2,0,1,nan\n")
        with pytest.raises(ConfigError, match="true_ite"):
            load_table(p, TableSchema(true_ite_col="ite"))

    def test_undecodable_bytes_name_file(self, tmp_path):
        p = tmp_path / "data.csv"
        # In the header's read and, past the first read buffer, in the body.
        long_body = "1,1,0\n" * 5000
        for raw in (b"a,treatment,outcome\n1,1,0\n2\xff,0,1\n",
                    ("a,treatment,outcome\n" + long_body).encode() + b"2\xff,0,1\n"):
            p.write_bytes(raw)
            with pytest.raises(ParseError, match=re.escape(f"{p}: not UTF-8 text")):
                load_table(p, TableSchema())

    def test_byte_order_mark_dropped(self, tmp_path):
        # A UTF-8 byte-order mark before the header is not part of the
        # first column's name, whether that column is named by the schema
        # or is a feature; a bad row is still found and numbered.
        bom = "\ufeff"
        p = _write(tmp_path, bom + "treatment,x1,outcome\n1,0.5,0\n0,1.5,1\n")
        ds = load_table(p, TableSchema())
        np.testing.assert_array_equal(ds.treatment, [1, 0])
        np.testing.assert_array_equal(ds.features.ravel(), [0.5, 1.5])
        p = _write(tmp_path, bom + "x1,x2,treatment,outcome\n1,2,1,0\n3,4,0,1\n")
        ds = load_table(p, TableSchema(feature_cols=["x1"]))
        np.testing.assert_array_equal(ds.features.ravel(), [1.0, 3.0])
        p = _write(tmp_path, bom + "x1,treatment,outcome\n1,1,0\n2,2,1\n")
        with pytest.raises(ParseError, match="row 2: column 'treatment'"):
            load_table(p, TableSchema())

    def test_saved_bytes_exact(self, tmp_path):
        ds = Dataset([[0.1, -2.5e-300], [3.0, 1e300]], [1, 0], [0, 1], [0.25, -1 / 3])
        p = tmp_path / "out.csv"
        rows = ["x1,x2,treatment,outcome,true_ite",
                "0.10000000000000001,-2.5e-300,1,0,0.25",
                "3,1.0000000000000001e+300,0,1,-0.33333333333333331"]
        for delimiter in (",", "\t"):
            save_table(ds, p, delimiter)
            want = "".join(r.replace(",", delimiter) + "\n" for r in rows)
            assert p.read_bytes() == want.encode()


class TestSplit:
    def test_exact_sizes(self):
        ds = generate_synthetic(SynthConfig(n=100, d=3, seed=1))
        tr, va, te = split(ds, (0.8, 0.1, 0.1), seed=0)
        assert (tr.n, va.n, te.n) == (80, 10, 10)

    def test_deterministic(self):
        ds = generate_synthetic(SynthConfig(n=500, d=3, seed=2))
        a = split(ds, (0.6, 0.2, 0.2), seed=5)
        b = split(ds, (0.6, 0.2, 0.2), seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)

    def test_partition_complete_and_disjoint(self):
        ds = generate_synthetic(SynthConfig(n=503, d=3, seed=3))
        parts = split(ds, (0.7, 0.15, 0.15), seed=1)
        assert sum(p.n for p in parts) == ds.n
        # Row identity via the unique uniform features
        keys = [tuple(row) for p in parts for row in p.features]
        assert len(set(keys)) == ds.n

    def test_stratification_keeps_cell_proportions(self):
        ds = generate_synthetic(SynthConfig(n=2000, d=3, seed=4))
        fractions = (0.8, 0.1, 0.1)
        parts = split(ds, fractions, seed=2)
        for t in (0, 1):
            for y in (0, 1):
                cell_n = int(((ds.treatment == t) & (ds.outcome == y)).sum())
                for p, f in zip(parts, fractions):
                    got = int(((p.treatment == t) & (p.outcome == y)).sum())
                    assert abs(got - cell_n * f) <= 3

    def test_all_treated_is_stratified_on_outcome(self):
        # Two of the four (t, y) cells are empty; the split stays stratified
        # and warns of nothing.
        ds = Dataset(
            np.arange(20, dtype=float).reshape(20, 1),
            np.ones(20),
            np.tile([0, 1], 10),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parts = split(ds, (0.5, 0.25, 0.25), seed=0)
        assert [p.n for p in parts] == [10, 5, 5]
        for p, f in zip(parts, (0.5, 0.25, 0.25)):
            for y in (0, 1):
                assert abs(int((p.outcome == y).sum()) - 10 * f) <= 1

    def test_bad_fractions_rejected(self):
        ds = generate_synthetic(SynthConfig(n=50, d=3, seed=0))
        with pytest.raises(ConfigError):
            split(ds, (0.5, 0.2, 0.2), seed=0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.6", True, None])
    def test_fraction_that_is_no_finite_number_rejected(self, bad):
        ds = generate_synthetic(SynthConfig(n=50, d=3, seed=0))
        want = f"fractions must be finite numbers, got {bad!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            split(ds, (bad, 0.5, 0.5), seed=0)

    @pytest.mark.parametrize("bad", [0.5, None, "abc", b"abc", np.float64(0.5)])
    def test_fractions_that_are_no_sequence_rejected(self, bad):
        ds = generate_synthetic(SynthConfig(n=50, d=3, seed=0))
        want = f"fractions must be a sequence of numbers, got {bad!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            split(ds, bad, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, "3", None])
    def test_bad_seed_rejected(self, seed):
        ds = generate_synthetic(SynthConfig(n=50, d=3, seed=0))
        want = f"'seed' must be an integer >= 0, got {seed!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            split(ds, (0.6, 0.2, 0.2), seed)


class TestMinibatches:
    def test_short_final_batch_dropped(self):
        ds = generate_synthetic(SynthConfig(n=10, d=3, seed=0))
        batches = minibatches(ds, 4, seed=0, epoch=0)
        assert len(batches) == 2
        assert all(len(b.indices) == 4 for b in batches)

    def test_treated_fraction_exact(self):
        ds = Dataset(np.zeros((4, 1)), np.array([1, 1, 1, 0]), np.zeros(4))
        (batch,) = minibatches(ds, 4, seed=0, epoch=0)
        assert batch.u_t == 0.75
        assert batch.u_t == int(ds.treatment[batch.indices].sum()) / len(batch.indices)

    def test_epochs_reshuffle_same_multiset(self):
        ds = generate_synthetic(SynthConfig(n=64, d=3, seed=1))
        e1 = np.concatenate([b.indices for b in minibatches(ds, 8, seed=3, epoch=1)])
        e2 = np.concatenate([b.indices for b in minibatches(ds, 8, seed=3, epoch=2)])
        assert not np.array_equal(e1, e2)
        np.testing.assert_array_equal(np.sort(e1), np.sort(e2))

    def test_oversized_batch_warns_and_returns_nothing(self):
        ds = generate_synthetic(SynthConfig(n=10, d=3, seed=0))
        with pytest.warns(UserWarning, match="batch_size"):
            assert minibatches(ds, 11, seed=0, epoch=0) == []

    def test_tiny_batch_size_rejected(self):
        ds = generate_synthetic(SynthConfig(n=10, d=3, seed=0))
        for batch_size in (1, 4.5, 4.0, True):
            with pytest.raises(ConfigError, match="'batch_size' must be an integer >= 2"):
                minibatches(ds, batch_size, seed=0, epoch=0)

    @pytest.mark.parametrize("seed, epoch, name", [
        (-1, 0, "seed"), (2.5, 0, "seed"), (0, -1, "epoch"), (0, 1.0, "epoch"),
    ])
    def test_bad_seed_or_epoch_rejected(self, seed, epoch, name):
        ds = generate_synthetic(SynthConfig(n=10, d=3, seed=0))
        with pytest.raises(ConfigError, match=f"'{name}' must be an integer >= 0"):
            minibatches(ds, 4, seed, epoch)


class TestGenerateSynthetic:
    def test_no_effect_case(self):
        ds = generate_synthetic(SynthConfig(n=50_000, tau_max=0.0, seed=7))
        assert not ds.true_ite.any()
        assert abs(empirical_ate(ds)) <= 3 * ate_standard_error(ds)

    def test_defaults_recover_mean_effect(self):
        # mean of tau_max * max(0, 2(x - 1/2)) over uniform x is tau_max/4
        ds = generate_synthetic(SynthConfig(seed=11))
        assert abs(ds.true_ite.mean() - 0.015) < 0.0005
        assert abs(empirical_ate(ds) - ds.true_ite.mean()) <= 3 * ate_standard_error(ds)

    def test_deterministic(self):
        a = generate_synthetic(SynthConfig(n=100, seed=5))
        b = generate_synthetic(SynthConfig(n=100, seed=5))
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.outcome, b.outcome)

    def test_probability_overflow_rejected_before_sampling(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SynthConfig(base_rate=0.97, slope=0.02, tau_max=0.06))

    @pytest.mark.parametrize("field, value, least", [
        ("n", 0, 1), ("n", 100.5, 1), ("n", True, 1), ("d", 2, 3), ("d", 4.0, 3),
        ("seed", -3, 0), ("seed", "1", 0),
    ])
    def test_bad_integer_setting_rejected(self, field, value, least):
        # n=True once drew a one-row set; floats and negative seeds failed
        # inside numpy.
        want = f"'{field}' must be an integer >= {least}, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            generate_synthetic(SynthConfig(**{field: value}))

    @pytest.mark.parametrize("value", ["0.1", None, True, np.nan, np.inf])
    @pytest.mark.parametrize("field", ["base_rate", "slope", "tau_max",
                                       "treated_fraction"])
    def test_real_setting_that_is_no_finite_number_rejected(self, field, value):
        # treated_fraction="0.5" once raised a bare TypeError, and slope=nan
        # generated a data set.
        want = f"'{field}' must be a finite number, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            generate_synthetic(SynthConfig(**{field: value}))

    def test_half_population_has_zero_uplift(self):
        ds = generate_synthetic(SynthConfig(n=20_000, seed=2))
        zero_frac = (ds.true_ite == 0.0).mean()
        assert abs(zero_frac - 0.5) < 0.02


class TestEmpiricalAte:
    def test_lenta_rates(self):
        ds = _rate_dataset(100_000, 11_012, 100_000, 10_257)
        assert abs(empirical_ate(ds) - 0.00755) < 5e-18

    def test_criteo_rates(self):
        ds = _rate_dataset(50_000, 2_427, 5_000, 191)
        assert abs(empirical_ate(ds) - 0.01034) < 5e-18

    def test_identical_groups_zero(self):
        ds = _rate_dataset(100, 40, 50, 20)
        assert empirical_ate(ds) == 0.0

    def test_single_arm_rejected(self):
        ds = Dataset(np.zeros((3, 1)), np.ones(3), np.array([0, 1, 0]))
        with pytest.raises(MetricError):
            empirical_ate(ds)


class TestScaler:
    def test_standardizes_train_columns(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, size=(500, 4))
        mean, std = data.fit_scaler(x)
        z = (x - mean) / std
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_constant_column_maps_to_zero(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10)
        mean, std = data.fit_scaler(x)
        z = (x - mean) / std
        np.testing.assert_array_equal(z[:, 0], np.zeros(10))
