import numpy as np
import numpy.testing as npt
import pytest

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

    def test_load_embedding_without_label_column(self, tmp_path):
        path = write(tmp_path / "e.csv", "z1\n0.5\n1.5\n")
        ds = load_embedding(path)
        npt.assert_array_equal(ds.X, [[0.5], [1.5]])
        assert ds.labels is None


class TestDataset:
    def test_plain_container(self):
        ds = Dataset(np.zeros((2, 2)))
        assert ds.labels is None and ds.label_names is None
