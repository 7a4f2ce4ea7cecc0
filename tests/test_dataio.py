import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphcoupling import dataio
from graphcoupling.dataio import Dataset, load_csv, load_embedding, save_embedding
from graphcoupling.errors import DataError, ParameterError


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_with_header(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1.5,2\n-3,4.25\n")
        ds = load_csv(path)
        npt.assert_array_equal(ds.X, [[1.5, 2.0], [-3.0, 4.25]])
        assert ds.feature_names == ["a", "b"]
        assert ds.labels is None

    def test_no_header_synthesizes_names(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2\n3,4\n")
        ds = load_csv(path, header=False)
        npt.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])
        assert ds.feature_names == ["c0", "c1"]

    def test_label_by_name(self, tmp_path):
        path = write(tmp_path / "t.csv", "x,y,cls\n1,2,dog\n3,4,cat\n5,6,dog\n")
        ds = load_csv(path, label="cls")
        npt.assert_array_equal(ds.X, [[1, 2], [3, 4], [5, 6]])
        npt.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.label_names == ["dog", "cat"]  # first-appearance order
        assert ds.feature_names == ["x", "y"]

    def test_label_by_index(self, tmp_path):
        path = write(tmp_path / "t.csv", "7,a\n8,b\n9,a\n")
        ds = load_csv(path, header=False, label=1)
        npt.assert_array_equal(ds.X, [[7.0], [8.0], [9.0]])
        npt.assert_array_equal(ds.labels, [0, 1, 0])
        assert ds.label_names == ["a", "b"]

    def test_label_name_without_header(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,a\n")
        with pytest.raises(ParameterError):
            load_csv(path, header=False, label="cls")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path / "t.csv", "x,y\n1,2\n")
        with pytest.raises(DataError, match="no column named 'cls'"):
            load_csv(path, label="cls")

    def test_label_index_out_of_range(self, tmp_path):
        path = write(tmp_path / "t.csv", "1,2\n")
        with pytest.raises(DataError, match="out of range"):
            load_csv(path, header=False, label=2)

    def test_ragged_row_names_line(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1,2\n3\n4,5\n")
        with pytest.raises(DataError, match="line 3: expected 2 fields, got 1"):
            load_csv(path)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match="line 3, column 'b'"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", " NaN", "1e999"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = write(tmp_path / "t.csv", f"a,b,cls\n1,2,x\n3,4,y\n5,{cell},x\n")
        with pytest.raises(DataError, match=f"line 4, column 'b': non-finite value "
                                            f"'{cell.strip()}'$"):
            load_csv(path, label="cls")

    def test_first_non_finite_cell_is_named(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n1,inf\nnan,2\n")
        with pytest.raises(DataError, match="line 2, column 'b'"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "t.csv", "")
        with pytest.raises(DataError, match="no data"):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n")
        with pytest.raises(DataError, match="no data rows"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "absent.csv"))

    def test_blank_lines_skipped(self, tmp_path):
        path = write(tmp_path / "t.csv", "a,b\n\n1,2\n   \n3,4\n\n")
        ds = load_csv(path)
        npt.assert_array_equal(ds.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_semicolon_delimiter(self, tmp_path):
        path = write(tmp_path / "t.csv", "a;b\n1.5;2.5\n")
        ds = load_csv(path, delimiter=";")
        npt.assert_array_equal(ds.X, [[1.5, 2.5]])

    def test_whitespace_tolerated(self, tmp_path):
        path = write(tmp_path / "t.csv", "a , b\n 1 , 2 \n")
        ds = load_csv(path)
        npt.assert_array_equal(ds.X, [[1.0, 2.0]])
        assert ds.feature_names == ["a", "b"]

    def test_only_label_column(self, tmp_path):
        path = write(tmp_path / "t.csv", "cls\ndog\n")
        with pytest.raises(DataError, match="no numeric columns"):
            load_csv(path, label="cls")


def numpy_parse(path, delimiter=",", header=True, label=None):
    """What numpy's parser makes of a file: a Dataset, or None for the walk."""
    try:
        return dataio._parse_with_numpy(path, delimiter, header, label)
    except Exception:
        return None


def same_dataset(a, b):
    return (a.X.tobytes() == b.X.tobytes() and a.X.shape == b.X.shape
            and a.X.flags["C_CONTIGUOUS"] and b.X.flags["C_CONTIGUOUS"]
            and (a.labels is None) == (b.labels is None)
            and (a.labels is None or a.labels.tobytes() == b.labels.tobytes())
            and a.label_names == b.label_names and a.feature_names == b.feature_names)


def outcome(load, *args):
    """The Dataset a loader returns, or the type and text of what it raises."""
    try:
        return load(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestNumpyParser:
    def test_reads_the_benchmark_layout(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 4))
        lines = ["x0,x1,x2,x3,class"] + [
            ",".join(format(v, ".17g") for v in row) + f",c{i % 3}" for i, row in enumerate(X)]
        path = write(tmp_path / "t.csv", "\n".join(lines) + "\n")
        parsed = numpy_parse(path, label="class")
        assert parsed is not None
        assert parsed.X.tobytes() == X.tobytes()
        assert same_dataset(parsed, dataio._walk_rows(path, ",", True, "class"))
        assert same_dataset(load_csv(path, label="class"), parsed)

    def test_label_names_are_strings_under_the_pre_2_loadtxt_default(self, tmp_path,
                                                                     monkeypatch):
        # Before numpy 2.0, loadtxt's default encoding hands converters bytes.
        loadtxt = np.loadtxt

        def pre_2_loadtxt(*args, **kwargs):
            return loadtxt(*args, **{"encoding": "bytes", **kwargs})
        monkeypatch.setattr(np, "loadtxt", pre_2_loadtxt)
        path = write(tmp_path / "t.csv", "x,class\n1,c0\n2,c1\n3,c0\n")
        parsed = numpy_parse(path, label="class")
        assert parsed is not None
        assert parsed.label_names == ["c0", "c1"]
        assert same_dataset(parsed, dataio._walk_rows(path, ",", True, "class"))

    @pytest.mark.parametrize("text, header, label", [
        ("a,b\n1,2\n3,4,5\n", True, None),          # a row with an extra column
        ("a,b,c\n1,2,x\n3,4,y,5\n", True, "c"),      # the same under a label
        ("a,b,c\n1,2,x\n3,4\n", True, "c"),          # a row one field short
        ("a,b\n1,2,9\n3,4,5\n", True, None),        # every row one wider than the header
        ("a,b\n1_0,2\n", True, None),                # float() takes 1_0, numpy does not
        ("1,2\n   \n3,4\n", False, None),             # a whitespace-only line
        ("a,b,c\n1,2,x\n \t ,  , \n3,4,y\n", True, 2),  # a row of blank cells
        ('a,b\n"1.5",2\n', True, None),              # a quoted cell
        ('"a",b\n1,2\n', True, None),                # a quoted header
        ('a,b,c\n1,2,"x,y"\n3,4,z\n', True, "c"),    # a quoted label with the delimiter
        ("\na,b\n1,2\n", True, None),                 # a blank first line
    ])
    def test_the_row_walk_decides(self, tmp_path, text, header, label):
        path = write(tmp_path / "t.csv", text)
        assert numpy_parse(path, header=header, label=label) is None
        got = outcome(load_csv, path, ",", header, label)
        want = outcome(dataio._walk_rows, path, ",", header, label)
        assert got == want if isinstance(want, tuple) else same_dataset(got, want)

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3,4,5\n", "line 3: expected 2 fields, got 3"),
        ("a,b\n1,2\n3,4_5x\n", "line 3, column 'b': non-numeric value '4_5x'"),
        ("a,b\n1,nan\n", "line 2, column 'b': non-finite value 'nan'"),
    ])
    def test_errors_read_as_the_walk_words_them(self, tmp_path, text, message):
        path = write(tmp_path / "t.csv", text)
        with pytest.raises(DataError, match=f"{message}$"):
            load_csv(path)

    def test_underscores_and_quotes_are_read_as_before(self, tmp_path):
        path = write(tmp_path / "t.csv", 'a,b,cls\n1_0,"2.5",x\n3, 4 ,"y"\n')
        ds = load_csv(path, label="cls")
        npt.assert_array_equal(ds.X, [[10.0, 2.5], [3.0, 4.0]])
        assert ds.label_names == ["x", "y"]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_numpy_reads_only_what_the_walk_reads_alike(self, tmp_path_factory, data):
        # Cells and line ends chosen where the two parsers might differ;
        # wherever numpy returns a table, the walk returns the same one.
        delimiter = data.draw(st.sampled_from([",", ";", "|"]))
        plain = ["1", " 2.5 ", "-0", "+.5", "1e5", "1E-320", "\t3", "3\x0b", "\u20001",
                 "4\u2028", "5\x85", "\xa06", "1.7976931348623157e308"]
        odd = ["1_0", "nan", "-inf", "", "  ", "x", "0x10", "\u0661", "7\x0c8", "9 9",
               '"4"', "2e308"]
        cell = st.sampled_from(plain * 30 + odd)
        width = data.draw(st.integers(1, 4))
        rows = data.draw(st.lists(
            st.lists(cell, min_size=width, max_size=width + (data.draw(st.integers(0, 9)) == 0)),
            min_size=0, max_size=5))
        ends = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\n\n", "\n \n"])
        header = data.draw(st.booleans())
        head = delimiter.join(f"h{j}" for j in range(width)) + data.draw(ends)
        text = (head if header else "") + "".join(
            delimiter.join(row) + data.draw(ends) for row in rows)
        label = data.draw(st.sampled_from([None, 0, width - 1]))
        path = tmp_path_factory.mktemp("fuzz") / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        parsed = numpy_parse(str(path), delimiter, header, label)
        if parsed is not None:
            walked = dataio._walk_rows(str(path), delimiter, header, label)
            assert same_dataset(parsed, walked)


class TestStreamedParse:
    @pytest.mark.parametrize("late, values, message", [
        ('"3",4,y\n', [3.0, 4.0], None),                 # a quoted cell
        ('3,4,"y"\n', [3.0, 4.0], None),                 # a quoted label
        ("3,4\0,y\n", None, "non-numeric value '4\\x00'"),  # a NUL
    ])
    def test_quote_or_nul_past_the_first_chunk_goes_to_the_walk(self, tmp_path, late,
                                                                 values, message):
        row = "1.25,2.5,x\n"
        rows = dataio.SCAN_BYTES // len(row) + 1
        path = write(tmp_path / "t.csv", "a,b,c\n" + row * rows + late)
        assert numpy_parse(path, label="c") is None
        got = outcome(load_csv, path, ",", True, "c")
        want = outcome(dataio._walk_rows, path, ",", True, "c")
        if message is None:
            assert same_dataset(got, want)
            npt.assert_array_equal(got.X[-1], values)
            assert got.X.shape == (rows + 1, 2) and got.label_names == ["x", "y"]
        else:
            assert got == want
            assert want[0] is DataError
            assert want[1].endswith(f"line {rows + 2}, column 'b': {message}")

    def test_crlf_reads_as_its_lf_twin(self, tmp_path):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 3)) * 10.0 ** rng.integers(-20, 20, size=(40, 3))
        lines = ["x0,x1,x2,cls"] + [
            ",".join(format(v, ".17g") for v in row) + f",c{i % 4}" for i, row in enumerate(X)]
        parsed = {}
        for end in ("\n", "\r\n", "\r"):
            path = tmp_path / f"t{len(end)}.csv"
            path.write_text(end.join(lines) + end, encoding="utf-8", newline="")
            parsed[end] = numpy_parse(str(path), label="cls")
            assert parsed[end] is not None
        assert parsed["\n"].X.tobytes() == X.tobytes()
        assert same_dataset(parsed["\r\n"], parsed["\n"])
        assert same_dataset(parsed["\r"], parsed["\n"])

    def test_peak_memory_is_a_few_copies_of_x(self, tmp_path):
        # The text is neither read whole nor copied, and the label column
        # stays out of the parsed table, which numpy allocates once: the
        # peak is X, the label codes and the parser's buffers.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(2000, 50))
        lines = [",".join(f"x{j}" for j in range(50)) + ",class"] + [
            ",".join(format(v, ".17g") for v in row) + f",c{i % 10}" for i, row in enumerate(X)]
        path = write(tmp_path / "t.csv", "\n".join(lines) + "\n")
        load_csv(write(tmp_path / "warm.csv", "a,class\n1,c0\n"), label="class")
        tracemalloc.start()
        try:
            ds = load_csv(path, label="class")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.X.tobytes() == X.tobytes()
        assert peak <= 1.25 * ds.X.nbytes, f"{peak / ds.X.nbytes:.2f} copies of X"


class TestEmbeddingRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        # values chosen to stress the formatter: non-terminating binary
        # fractions, subnormal-adjacent magnitudes, negative zero
        Z = np.array([[0.1, 1.0 / 3.0],
                      [np.pi, -0.0],
                      [1e-300, 1e300],
                      [-7.123456789012345e-5, 2.0 ** -52]])
        path = tmp_path / "e.csv"
        save_embedding(path, Z)
        ds = load_embedding(path)
        assert ds.X.tobytes() == Z.tobytes()
        assert ds.feature_names == ["z1", "z2"]

    def test_round_trip_with_labels(self, tmp_path):
        Z = np.random.default_rng(0).normal(size=(5, 2))
        labels = np.array([0, 1, 1, 0, 2])
        names = ["red", "green", "blue"]
        path = tmp_path / "e.csv"
        save_embedding(path, Z, labels, names)
        ds = load_embedding(path)
        assert ds.X.tobytes() == Z.tobytes()
        npt.assert_array_equal(ds.labels, labels)
        assert ds.label_names == names

    def test_labels_without_names_round_trip_as_codes(self, tmp_path):
        Z = np.zeros((3, 1))
        path = tmp_path / "e.csv"
        save_embedding(path, Z, labels=[4, 4, 7])
        ds = load_embedding(path)
        # codes are re-assigned in first-appearance order on load
        npt.assert_array_equal(ds.labels, [0, 0, 1])
        assert ds.label_names == ["4", "7"]

    def test_written_format(self, tmp_path):
        path = tmp_path / "e.csv"
        save_embedding(path, np.array([[1.0, -2.5]]), labels=[0],
                       label_names=["blob"])
        assert path.read_text(encoding="utf-8") == "z1,z2,label\n1,-2.5,blob\n"

    def test_label_length_mismatch(self, tmp_path):
        with pytest.raises(ParameterError):
            save_embedding(tmp_path / "e.csv", np.zeros((3, 2)), labels=[0, 1])

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ParameterError):
            save_embedding(tmp_path / "e.csv", np.zeros(4))

    def test_load_embedding_reads_the_header_row_alone_first(self, tmp_path):
        path = write(tmp_path / "e.csv", "\n  \nz1,label\n0.5,a\n")
        assert dataio._read_rows(path, ",", limit=1) == [["z1", "label"]]
        assert load_embedding(path).label_names == ["a"]
        with pytest.raises(DataError, match="contains no data"):
            load_embedding(write(tmp_path / "blank.csv", "\n  \n"))
        with pytest.raises(DataError, match="cannot read"):
            load_embedding(tmp_path / "missing.csv")

    def test_load_embedding_without_label_column(self, tmp_path):
        path = write(tmp_path / "e.csv", "z1\n0.5\n1.5\n")
        ds = load_embedding(path)
        npt.assert_array_equal(ds.X, [[0.5], [1.5]])
        assert ds.labels is None


class TestDataset:
    def test_plain_container(self):
        ds = Dataset(np.zeros((2, 2)))
        assert ds.labels is None and ds.label_names is None
