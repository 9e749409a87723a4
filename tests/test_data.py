"""Dataset construction, ingestion, splitting, batching, synthesis."""

import dataclasses
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

from oracles import ate_standard_error, synthetic_ref


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

    def test_caller_arrays_stay_writable(self):
        # Inputs already of the stored dtype are not copied: the Dataset
        # freezes views of them, not the caller's own arrays.
        x, t = np.zeros((3, 2)), np.array([0, 1, 0], dtype=np.int64)
        y, ite = np.array([1, 0, 1], dtype=np.int64), np.zeros(3)
        ds = Dataset(x, t, y, ite)
        for name, mine in (("features", x), ("treatment", t), ("outcome", y),
                           ("true_ite", ite)):
            frozen = getattr(ds, name)
            assert np.shares_memory(frozen, mine)
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 1
            mine[0] = 1  # the caller's array still takes writes
            assert (frozen[0] == 1).all()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_features_rejected(self, bad):
        with pytest.raises(ConfigError, match="^features contain non-finite values$"):
            Dataset(np.array([[0.0], [bad]]), [0, 1], [1, 0])

    def test_true_ite_length_rejected(self):
        with pytest.raises(ConfigError,
                           match="^true_ite length does not match feature rows$"):
            Dataset(np.zeros((2, 1)), [0, 1], [1, 0], [0.0])

    @pytest.mark.parametrize("shape", [(2,), (2, 1, 1)])
    def test_features_that_are_not_2d_rejected(self, shape):
        want = f"features must be 2-D, got shape {shape}"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            Dataset(np.zeros(shape), [0, 1], [1, 0])

    @pytest.mark.parametrize("column, bad", [
        ("features", np.ones((2, 1)) * (1 + 2j)), ("features", [["a"], ["b"]]),
        ("features", [[0.1], [0.2, 0.3]]), ("true_ite", np.array([0.5j, 0.0])),
        ("true_ite", ["0.1", "x"]), ("true_ite", [0.1, [0.2, 0.3]]),
    ], ids=["features-complex", "features-text", "features-ragged",
            "true_ite-complex", "true_ite-text", "true_ite-ragged"])
    def test_values_that_are_not_real_name_the_column(self, column, bad):
        # Checked before the float64 cast, which would drop an imaginary
        # part with only a warning, or fail with a bare ValueError.
        cols = {"features": np.zeros((2, 1)), "true_ite": np.zeros(2), column: bad}
        with pytest.raises(ConfigError, match=f"^'{column}' must hold real numbers"):
            Dataset(cols["features"], [0, 1], [1, 0], cols["true_ite"])

    def test_object_array_of_reals_accepted(self):
        features = np.array([[1, 2.5], [True, np.float32(3)]], dtype=object)
        ds = Dataset(features, [0, 1], [1, 0], np.array([np.int8(1), -0.5], dtype=object))
        np.testing.assert_array_equal(ds.features, [[1.0, 2.5], [1.0, 3.0]])
        np.testing.assert_array_equal(ds.true_ite, [1.0, -0.5])


class TestLoadTable:
    def test_small_file_shape(self, tmp_path):
        plain = "a,b,treatment,outcome\n1,2,1,0\n3,4,0,1\n5,6,1,1\n7,8,0,0\n"
        # LF, CRLF and CR line endings, a blank line.
        for text in (plain, plain.replace("\n", "\r\n"), plain.replace("\n", "\r"),
                     plain.replace("1,0\n", "1,0\n\n")):
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
        for cell in ("1_000", "\u0661", "\uff11"):
            match = f"row 2: non-numeric value {cell!r} in column 'a'"
            p = _write(tmp_path, f"a,treatment,outcome\n1,1,0\n{cell},0,1\n")
            with pytest.raises(ParseError, match=re.escape(match)):
                load_table(p, TableSchema())

    def test_twelve_feature_columns_accepted(self, tmp_path):
        cols = [f"f{i}" for i in range(12)]
        header = ",".join(cols + ["treatment", "outcome"])
        row = ",".join(["0.5"] * 12 + ["1", "0"])
        p = _write(tmp_path, header + "\n" + row + "\n" + row + "\n")
        ds = load_table(p, TableSchema())
        assert ds.d == 12

    @pytest.mark.parametrize("text, schema, error, match", [
        ("", TableSchema(), SchemaError, "file is empty, expected a header row"),
        ("treatment,outcome\n1,0\n", TableSchema(), SchemaError,
         "no feature columns left after schema mapping"),
        ("t,y,ite\n1,0,0.1\n", TableSchema("t", "y", true_ite_col="ite"),
         SchemaError, "no feature columns left after schema mapping"),
        ("a,treatment,outcome\n", TableSchema(), ParseError, "no data rows"),
        ("a,treatment,outcome\n1,1,0\n2,yes,1\n", TableSchema(), ParseError,
         "row 2: non-numeric value 'yes' in column 'treatment'"),
        ("a,treatment,outcome,ite\n1,1,0,0.1\n2,0,1,abc\n",
         TableSchema(true_ite_col="ite"), ParseError,
         "row 2: non-numeric value 'abc' in column 'ite'"),
        # Once the first x1 was dropped and the second loaded twice; the
        # treatment loaded as the outcome; a role column loaded as a feature.
        ("x1,x1,treatment,outcome\n1,2,1,0\n3,4,0,1\n", TableSchema(), SchemaError,
         "column 'x1' appears 2 times in the header"),
        ("a,treatment,outcome\n1,1,0\n", TableSchema(outcome_col="treatment"),
         SchemaError, "column 'treatment' takes more than one role in the schema"),
        ("a,treatment,outcome,ite\n1,1,0,0.1\n",
         TableSchema(feature_cols=["a", "ite"], true_ite_col="ite"), SchemaError,
         "column 'ite' takes more than one role in the schema"),
    ], ids=["empty", "no-feature", "no-feature-ite", "no-rows", "treatment-cell",
            "ite-cell", "repeated-column", "treatment-as-outcome", "role-as-feature"])
    def test_typed_error_names_the_cause(self, tmp_path, text, schema, error, match):
        p = _write(tmp_path, text)
        with pytest.raises(error, match=f"^{re.escape(f'{p}: {match}')}$"):
            load_table(p, schema)

    @pytest.mark.parametrize("text, where", [
        ("a,{long},treatment,outcome\n1,2,1,0\nabc,2,0,1\n", "row 2"),
        ("a,note,treatment,outcome\n1,n,1,0\n2,{long},0,1\nabc,n,1,1\n", "row 3"),
    ], ids=["header", "body"])
    def test_long_cell_is_read_like_any_other(self, tmp_path, text, where):
        # A cell has no length limit, in the header or the body, so the
        # scan reaches the row at fault and names it.
        p = _write(tmp_path, text.format(long="x" * 200_000))
        want = f"{p}: {where}: non-numeric value 'abc' in column 'a'"
        with pytest.raises(ParseError, match=f"^{re.escape(want)}$"):
            load_table(p, TableSchema(feature_cols=["a"]))

    def test_open_quote_in_an_unused_column_ends_at_its_line(self, tmp_path):
        # A quote is an ordinary character: an unclosed one does not run on
        # into the next line and take every later row with it.
        rows = [f"{i},{i % 2},{i % 3 % 2},n{i}" for i in range(1000)]
        rows[2] = '2,0,1,"n2'
        p = _write(tmp_path, "a,treatment,outcome,note\n" + "\n".join(rows) + "\n")
        ds = load_table(p, TableSchema(feature_cols=["a"]))
        assert ds.n == 1000
        np.testing.assert_array_equal(ds.features.ravel(), np.arange(1000))

    @pytest.mark.parametrize("cell", ['"1"', '"1', '""'])
    def test_quoted_number_names_row_column_and_cell(self, tmp_path, cell):
        p = _write(tmp_path, f"a,treatment,outcome\n1,1,0\n{cell},0,1\n")
        want = f"{p}: row 2: non-numeric value {cell!r} in column 'a'"
        with pytest.raises(ParseError, match=f"^{re.escape(want)}$"):
            load_table(p, TableSchema())

    def test_missing_column_names_it(self, tmp_path):
        p = _write(tmp_path, "a,treatment\n1,0\n")
        with pytest.raises(SchemaError, match="outcome"):
            load_table(p, TableSchema())

    def test_non_numeric_feature_rejected(self, tmp_path):
        p = _write(tmp_path, "a,treatment,outcome\nfoo,1,0\n")
        with pytest.raises(ParseError, match="'a'"):
            load_table(p, TableSchema())

    def test_explicit_feature_subset_and_delimiter(self, tmp_path):
        # The unused column b may hold anything, numbers or not, and its
        # name may repeat.
        for text in ("a;b;t;y\n1;9;1;0\n2;8;0;1\n", "a;b;t;y\n1;x;1;0\n2;;0;1\n",
                     "a;b;b;t;y\n1;9;x;1;0\n2;8;;0;1\n"):
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

    @pytest.mark.parametrize("raw", [
        b"a\xff,treatment,outcome\n1,1,0\n",
        ("a,treatment,outcome\n" + "1,1,0\n" * 5000).encode() + b"2\xff,0,1\n",
    ], ids=["header", "body"])
    def test_undecodable_byte_message(self, tmp_path, raw):
        # The whole message, the byte that failed to decode included.
        p = tmp_path / "data.csv"
        p.write_bytes(raw)
        with pytest.raises(ParseError) as info:
            load_table(p, TableSchema())
        assert str(info.value) == f"{p}: not UTF-8 text, cannot decode byte b'\\xff'"

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

    @pytest.mark.parametrize("delimiter", [",,", "", "\n", "\r", None])
    def test_delimiter_csv_cannot_split_on_rejected(self, tmp_path, delimiter):
        # No table of one row per line can be split on these. They once
        # raised a bare TypeError on load, or save wrote files that load
        # could not read back.
        p = _write(tmp_path, "a,treatment,outcome\n1,1,0\n")
        want = f"'delimiter' must be one character other than a line break, " \
               f"got {delimiter!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            load_table(p, TableSchema(delimiter=delimiter))
        out = tmp_path / "out.csv"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            save_table(Dataset([[1.0]], [1], [0]), out, delimiter)
        assert not out.exists()

    def test_quote_is_an_ordinary_delimiter(self, tmp_path):
        # A table has no quoting, so '"' splits cells like any other
        # character, and save writes what load reads back.
        p = _write(tmp_path, 'a"treatment"outcome\n1.5"1"0\n-2"0"1\n')
        ds = load_table(p, TableSchema(delimiter='"'))
        np.testing.assert_array_equal(ds.features.ravel(), [1.5, -2.0])
        np.testing.assert_array_equal(ds.treatment, [1, 0])
        np.testing.assert_array_equal(ds.outcome, [0, 1])
        out = tmp_path / "out.csv"
        save_table(ds, out, '"')
        assert out.read_bytes() == b'x1"treatment"outcome\n1.5"1"0\n-2"0"1\n'
        back = load_table(out, TableSchema(delimiter='"'))
        assert back.features.tobytes() == ds.features.tobytes()

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

    @pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.4, 0.3, 0.2, 0.1),
                                           (1.2, -0.1, -0.1), (1.0, 0.0, 0.0)])
    def test_three_positive_fractions_needed(self, fractions):
        ds = generate_synthetic(SynthConfig(n=50, d=3, seed=0))
        want = f"need three positive fractions, got {tuple(map(float, fractions))}"
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            split(ds, fractions, seed=0)

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

    def test_oversized_batch_rejected(self):
        ds = generate_synthetic(SynthConfig(n=10, d=3, seed=0))
        with pytest.raises(ConfigError, match="^batch_size 11 exceeds dataset size 10$"):
            minibatches(ds, 11, seed=0, epoch=0)

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

    def test_config_is_checked_when_made_and_frozen(self):
        assert not hasattr(SynthConfig, "validate")
        assert len(dataclasses.fields(SynthConfig)) == 4
        with pytest.raises(ConfigError, match="^tau_max 0.95 would put"):
            SynthConfig(tau_max=0.95)
        cfg = SynthConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tau_max = 0.95
        with pytest.raises(ConfigError, match="^'d' must be an integer >= 3, got 2$"):
            dataclasses.replace(cfg, d=2)

    def test_probability_overflow_rejected_before_sampling(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SynthConfig(tau_max=0.95))

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
    @pytest.mark.parametrize("field", ["tau_max"])
    def test_real_setting_that_is_no_finite_number_rejected(self, field, value):
        want = f"'{field}' must be a finite number, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(want)):
            generate_synthetic(SynthConfig(**{field: value}))

    @pytest.mark.parametrize("tau_max", [-0.1, 0.88])
    def test_tau_max_at_the_edges_accepted(self, tau_max):
        # Response probabilities reach exactly 0 (control at x1 = 0 plus the
        # least effect) and exactly 1 (control at x1 = 1 plus the largest).
        ds = generate_synthetic(SynthConfig(n=10, d=3, tau_max=tau_max))
        assert ds.true_ite.min() >= min(0.0, tau_max)
        assert ds.true_ite.max() <= max(0.0, tau_max)

    @pytest.mark.parametrize("edge, span", [
        (-0.1, "[-1.3877787807814457e-17, 0.12000000000000001]"),
        (0.88, "[0.1, 1.0000000000000002]"),
    ])
    def test_tau_max_just_outside_the_edges_rejected(self, edge, span):
        tau_max = float(np.nextafter(edge, 2 * edge))
        want = (f"tau_max {tau_max!r} would put response probabilities in {span}, "
                "outside [0, 1]")
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            generate_synthetic(SynthConfig(tau_max=tau_max))

    def test_documented_defaults(self):
        assert dataclasses.astuple(SynthConfig()) == (50_000, 6, 0.06, 0)
        assert (data.BASE_RATE, data.SLOPE, data.TREATED_FRACTION) == (0.10, 0.02, 0.5)

    @pytest.mark.parametrize("tau_max", [0.06, 0.6, -0.08])
    def test_draws_the_stated_law_bit_for_bit(self, tau_max):
        # The oracle replays the rng stream and states the law row by row,
        # so a changed covariate, sign, constant or draw order shows.
        ds = generate_synthetic(SynthConfig(n=3000, d=4, tau_max=tau_max, seed=8))
        want = synthetic_ref(3000, 4, tau_max, 8)
        for got, ref in zip((ds.features, ds.treatment, ds.outcome, ds.true_ite), want):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

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

    def test_one_row_per_arm(self):
        ds = Dataset(np.zeros((2, 1)), np.array([1, 0]), np.array([1, 0]))
        assert empirical_ate(ds) == 1.0
        ds = Dataset(np.zeros((2, 1)), np.array([0, 1]), np.array([1, 0]))
        assert empirical_ate(ds) == -1.0

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
